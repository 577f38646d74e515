// Package costmodel defines the learned and analytical cost models that
// guide schedule search: the paper's Pattern-aware Cost Model (PaCM), the
// TenSetMLP and TLP baselines, a wrapper over the Symbol-based Analyzer,
// and a random-score control. All learned models share the ranking
// trainer: records are grouped per task, labelled with normalised
// throughput and optimised with the LambdaRank loss, as in the paper.
package costmodel

import (
	"math"
	"math/rand"

	"pruner/internal/ir"
	"pruner/internal/nn"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
)

// Record is one measured tensor program: the training unit of online and
// offline cost-model tuning.
type Record struct {
	Task    *ir.Task
	Sched   *schedule.Schedule
	Latency float64 // seconds; +Inf marks a failed measurement
}

// maxGroup bounds samples per task group per epoch: ranking lists get
// quadratic in group size, so a larger group trains on a fresh subsample
// each epoch.
const maxGroup = 128

// FitOptions configures one training call. Every fit runs at the
// learning rate its model was built with (TLP's is deliberately higher).
type FitOptions struct {
	Epochs int
	Seed   int64
	// MacroBatch is the number of task groups whose gradients are averaged
	// into one optimiser step by the parallel trainer; 0 selects the
	// default of 8. Groups within a macro-batch shard across the session
	// pool; a fixed size keeps the stepping schedule — and the fitted
	// parameters — independent of the worker count.
	MacroBatch int
	// Cache, when non-nil, memoizes the lowering (and, through Lowered's
	// feature cache, the featurization) of training records across epochs
	// and Fit calls. The tuner passes one session-scoped cache: records
	// are append-only and features deterministic, so each record is
	// lowered and featurized once per session instead of once per
	// epoch x round.
	Cache *FitCache
}

func (o FitOptions) withDefaults() FitOptions {
	if o.Epochs == 0 {
		o.Epochs = 15
	}
	if o.MacroBatch <= 0 {
		o.MacroBatch = 8
	}
	return o
}

// FitReport summarises one training call for logging and simulated-clock
// accounting.
type FitReport struct {
	// Loss is the mean loss of the final epoch, or NaN when no batch
	// trained (Batches == 0) — distinguishing "trained to zero loss" from
	// "every group was degenerate and training never ran".
	Loss         float64
	Samples      int // distinct training samples
	SampleVisits int // samples x epochs actually processed
	// Batches counts the ranking batches processed across all epochs.
	Batches int
}

// Costs are per-model multipliers over the platform's base CostParams,
// reflecting that TLP's transformer is far heavier than the MLP and that
// the draft model needs no feature extraction pipeline.
type Costs struct {
	FeatureX float64
	InferX   float64
	TrainX   float64
}

// Model scores candidate schedules of a task; higher is better.
type Model interface {
	Name() string
	// Predict scores candidates. Scores are comparable within one call.
	Predict(t *ir.Task, schs []*schedule.Schedule) []float64
	// Fit trains on measured records (no-op for analytical models).
	Fit(recs []Record, opt FitOptions) FitReport
	// Params exposes trainable parameters (nil for analytical models);
	// used by MoA's Siamese updates and by pretraining snapshots.
	Params() []*nn.Tensor
	// Costs returns simulated-clock multipliers.
	Costs() Costs
}

// New builds a fresh learned model of the named kind ("pacm",
// "tensetmlp", "tlp") with the given init seed; ok is false for any other
// name.
func New(kind string, seed int64) (m Model, ok bool) {
	switch kind {
	case "pacm":
		return NewPaCM(seed), true
	case "tensetmlp":
		return NewTenSetMLP(seed), true
	case "tlp":
		return NewTLP(seed), true
	}
	return nil, false
}

// Relevances converts a group's latencies into ranking labels: the
// normalised throughput min_latency / latency in (0, 1], with failed
// measurements at 0.
func Relevances(lats []float64) []float64 {
	best := math.Inf(1)
	for _, l := range lats {
		if l > 0 && l < best {
			best = l
		}
	}
	rel := make([]float64, len(lats))
	if math.IsInf(best, 1) {
		return rel
	}
	for i, l := range lats {
		if l > 0 && !math.IsInf(l, 1) {
			rel[i] = best / l
		}
	}
	return rel
}

// group is the per-task training unit used by the shared ranking trainer.
type group struct {
	task *ir.Task
	recs []Record
}

// groupByTask splits records into per-task groups with stable order.
func groupByTask(recs []Record) []group {
	idx := map[string]int{}
	var groups []group
	for _, r := range recs {
		i, ok := idx[r.Task.ID]
		if !ok {
			i = len(groups)
			idx[r.Task.ID] = i
			groups = append(groups, group{task: r.Task})
		}
		groups[i].recs = append(groups[i].recs, r)
	}
	return groups
}

// forwardFn scores a batch of lowered programs of one task on s (nil =
// heap), building a gradient graph when the model is training.
type forwardFn func(s *nn.Scratch, lws []*schedule.Lowered) *nn.Tensor

// trainBatch is one group's ready-to-train slice of an epoch: the
// (possibly subsampled) records plus their relevance labels. Batches are
// composed on the serial path — every random draw happens there — and
// only then fanned out to workers.
type trainBatch struct {
	task *ir.Task
	recs []Record
	rel  []float64
}

// epochBatches composes one epoch's training batches in the shuffled
// group order, consuming rng exactly like the serial reference loop:
// one groups-shuffle, then one subsample-shuffle per over-size group.
func epochBatches(groups []group, rng *rand.Rand) []trainBatch {
	rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	var batches []trainBatch
	for _, g := range groups {
		recs := g.recs
		if len(recs) > maxGroup {
			sub := make([]Record, len(recs))
			copy(sub, recs)
			rng.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
			recs = sub[:maxGroup]
		}
		if len(recs) < 2 {
			continue
		}
		lats := make([]float64, len(recs))
		for i, r := range recs {
			lats[i] = r.Latency
		}
		batches = append(batches, trainBatch{task: g.task, recs: recs, rel: Relevances(lats)})
	}
	return batches
}

// rankFit is the shared LambdaRank training engine: each epoch's task
// groups are sharded across the session pool in fixed-size macro-batches.
// Workers run one forward/backward per group on an architecture replica
// (weights aliased to the live model, gradients into the group's private
// slot buffer); the slot gradients are then averaged in fixed group order
// and applied with one Adam step per macro-batch. Because every random
// draw stays on the serial path and the reduction order is fixed, the
// fitted parameters are bitwise identical at any worker count — the same
// bar the batched inference engine holds (TestFitDeterministicAcrossWorkers).
func rankFit(recs []Record, opt FitOptions, adam *nn.Adam, pool *parallel.Pool, seed int64, tr *trainer) FitReport {
	opt = opt.withDefaults()
	groups := groupByTask(recs)
	report := FitReport{Loss: math.NaN()}
	if len(groups) == 0 {
		return report
	}
	if pool == nil {
		// Same fallback as predictBatched: fits outside a tuning session
		// (facade pretraining) still use the machine, not one goroutine.
		pool = parallel.Default()
	}
	rng := rand.New(rand.NewSource(seed ^ opt.Seed))
	for _, g := range groups {
		report.Samples += len(g.recs)
	}
	tr.ensureSlots(opt.MacroBatch)
	losses := make([]float64, opt.MacroBatch)
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		batches := epochBatches(groups, rng)
		var epochLoss float64
		for lo := 0; lo < len(batches); lo += opt.MacroBatch {
			hi := lo + opt.MacroBatch
			if hi > len(batches) {
				hi = len(batches)
			}
			chunk := batches[lo:hi]
			pool.ForEach(len(chunk), func(j int) {
				rep := tr.checkout()
				losses[j] = rep.step(chunk[j], opt.Cache.memo(chunk[j].task), tr.slot(j))
				tr.checkin(rep)
			})
			// Serial reduction in fixed group order, then one step over the
			// averaged macro-batch gradient (averaging keeps the per-step
			// magnitude comparable to a single-group step, so MacroBatch=1
			// reproduces the per-group reference bitwise).
			adam.ZeroGrad()
			scale := 1 / float64(len(chunk))
			for j := range chunk {
				tr.slot(j).AddInto(tr.params, scale)
				epochLoss += losses[j]
				report.SampleVisits += len(chunk[j].recs)
			}
			adam.Step()
			report.Batches += len(chunk)
		}
		if len(batches) > 0 {
			report.Loss = epochLoss / float64(len(batches))
		}
	}
	return report
}
