// Calibration-driven budget control (DESIGN.md §8). The paper's
// draft-then-verify split spends a fixed verify/measure budget per round
// regardless of how well the cost model is actually ranking candidates.
// The adaptive controller closes that loop: a per-task calibration
// tracker records the predicted-vs-measured rank error of every
// committed round, and three deterministic control laws spend the
// session's budget where the model is uncertain — a poorly-calibrated
// task keeps the full measured batch, the policy's own LSE draft budget
// and a shallow pipeline; a well-calibrated one shrinks the measured
// batch toward its floor while *widening* the cheap draft set and
// deepening the pipeline, trusting verification it has earned.
//
// Determinism: the tracker is fed exclusively from commit-ordered
// results on the session goroutine, so every control decision is a pure
// function of the committed prefix of rounds. Adaptive sessions are
// therefore bitwise reproducible at any pool size, any requested
// PipelineDepth (the controller owns the window when enabled) and
// across measurement backends — the same contract the fixed engine
// holds for a fixed depth.
package tuner

import (
	"cmp"
	"math"
)

// The controller's bounds. The float ones are typed so that every
// constant expression built from them rounds like float64 arithmetic.
const (
	// adaptMaxDepth is the deepest pipeline window the controller may
	// grow to. Depth rises with session-level confidence: staleness from
	// in-flight rounds only costs quality when the model's ranking is
	// moving, which is exactly when calibration error is high.
	adaptMaxDepth = 2
	// adaptSpecScale caps the LSE draft budget (|S_spec|) handed to the
	// policy at this multiple of the policy's own budget. Drafting is the
	// cheap half of draft-then-verify, so the controller spends confidence
	// in the opposite direction from the verify batch: a calibrated
	// verifier earns a *wider* speculation set for the model to rank,
	// which is what keeps quality flat while the measured batch shrinks.
	adaptSpecScale = 4
	// adaptLowErr / adaptHighErr map smoothed rank error onto confidence:
	// error at or below adaptLowErr is full confidence, at or above
	// adaptHighErr none, linear in between. A random ranker sits at 0.5, a
	// perfect one at 0. adaptLowErr is deliberately strict — a batch of
	// ten has 45 pairs, so 0.08 allows only a handful of discordant pairs:
	// budgets shrink only for tasks whose verifier ranks near-perfectly,
	// and a merely-decent model keeps the full fixed budget (see the
	// bert_tiny row of the "adaptive" experiment for what the strictness
	// buys).
	adaptLowErr  float64 = 0.08
	adaptHighErr float64 = adaptLowErr + 0.25
	// adaptAlpha is the EWMA weight of the newest round's error.
	adaptAlpha float64 = 0.3
)

// calibState is one EWMA rank-error tracker. Until the first observed
// round (seen == false) confidence is defined as zero, so sessions start
// at the full fixed budgets and must earn every reduction.
type calibState struct {
	err  float64
	seen bool
}

func (s *calibState) fold(e float64) {
	if !s.seen {
		s.err, s.seen = e, true
		return
	}
	s.err = (1-adaptAlpha)*s.err + adaptAlpha*e
}

// adaptController owns the three budget laws. It lives on the session
// goroutine: observe() is called only from commit (in strict round
// order) and the budget methods only from plan, so no locking is needed
// and every decision is reproducible from the committed prefix.
type adaptController struct {
	batch    int // nominal verify budget per round (Options.BatchSize)
	minBatch int // the floor law (a) shrinks the batch toward
	specBase int // the policy's own draft budget; 0 when it has none
	session  calibState
	tasks    map[string]*calibState // keyed access only, never ranged
}

// newAdaptController sizes the laws for one session. A fully-calibrated
// task still measures half its batch per round (at least 2, at most the
// batch itself), so calibration keeps being re-checked and drift is
// caught.
func newAdaptController(batch, specBase int) *adaptController {
	return &adaptController{
		batch:    batch,
		minBatch: min(batch, max(2, batch/2)),
		specBase: specBase,
		tasks:    map[string]*calibState{},
	}
}

// confidence maps a tracker onto [0, 1]: how much of its budget
// reduction this tracker has earned.
func (a *adaptController) confidence(s calibState) float64 {
	if !s.seen {
		return 0
	}
	c := (adaptHighErr - s.err) / (adaptHighErr - adaptLowErr)
	return math.Min(1, math.Max(0, c))
}

func (a *adaptController) taskCalib(id string) calibState {
	if st := a.tasks[id]; st != nil {
		return *st
	}
	return calibState{}
}

// verifyBudget is control law (a): the measured-batch bound for the
// task's next round, from BatchSize (no confidence) down to minBatch.
func (a *adaptController) verifyBudget(taskID string) int {
	c := a.confidence(a.taskCalib(taskID))
	return a.minBatch + int(math.Round((1-c)*float64(a.batch-a.minBatch)))
}

// draftBudget is control law (b): the LSE |S_spec| handed to the policy,
// from the policy's own budget up to adaptSpecScale times it; 0 (no
// override) when the policy exposes no draft budget. Confidence widens
// the draft set — the cheap half of the loop — so the fewer candidates
// law (a) lets through to measurement are picked from a larger
// model-ranked pool.
func (a *adaptController) draftBudget(taskID string) int {
	if a.specBase <= 0 {
		return 0
	}
	c := a.confidence(a.taskCalib(taskID))
	return a.specBase + int(math.Round(c*float64(adaptSpecScale*a.specBase-a.specBase)))
}

// targetDepth is control law (c): the pipeline-window bound, from 1 (no
// session-level confidence) up to adaptMaxDepth. Driven by the session
// tracker, not a per-task one, because the window is shared.
func (a *adaptController) targetDepth() int {
	c := a.confidence(a.session)
	return 1 + int(math.Round(c*float64(adaptMaxDepth-1)))
}

// observe folds one committed round's predicted-vs-measured ranking into
// the task and session trackers and returns the task's smoothed error.
// Rounds with no rank signal (fewer than two comparable measurements)
// leave both trackers untouched.
func (a *adaptController) observe(taskID string, scores, lats []float64) float64 {
	st := a.tasks[taskID]
	if st == nil {
		st = &calibState{}
		a.tasks[taskID] = st
	}
	if e := rankError(scores, lats); e >= 0 {
		st.fold(e)
		a.session.fold(e)
	}
	return st.err
}

// rankError is the calibration signal: the discordant fraction of all
// comparable pairs between the verifier's scores (higher is better) and
// the measured latencies (lower is better), ties counting half. 0 is a
// perfectly-ranked batch, 0.5 a random one, 1 a perfectly inverted one.
// Pairs with equal, NaN or both-+Inf latencies carry no signal and are
// skipped; a single +Inf (failed build) ranks last and does count — a
// model that scores unbuildable schedules highly is miscalibrated. NaN
// scores rank last and tie with each other, as the search ranks them, so
// batch order cannot change the result. -1 means no comparable pair.
func rankError(scores, lats []float64) float64 {
	if len(scores) != len(lats) {
		return -1
	}
	var disc, total float64
	for i := range lats {
		for j := i + 1; j < len(lats); j++ {
			li, lj := lats[i], lats[j]
			if li == lj || math.IsNaN(li) || math.IsNaN(lj) {
				continue
			}
			total++
			switch c := cmp.Compare(scores[i], scores[j]); {
			case c == 0:
				disc += 0.5
			case (c > 0) != (li < lj):
				disc++
			}
		}
	}
	if total == 0 {
		return -1
	}
	return disc / total
}
