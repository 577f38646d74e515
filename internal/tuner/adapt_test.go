package tuner

import (
	"context"
	"math"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"pruner/internal/costmodel"
	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/measure"
	"pruner/internal/nn"
	"pruner/internal/schedule"
	"pruner/internal/search"
	"pruner/internal/simulator"
)

func TestRankError(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name   string
		scores []float64
		lats   []float64
		want   float64
	}{
		{"perfect", []float64{3, 2, 1}, []float64{0.1, 0.2, 0.3}, 0},
		{"inverted", []float64{1, 2, 3}, []float64{0.1, 0.2, 0.3}, 1},
		{"partially-discordant", []float64{3, 1, 2}, []float64{0.1, 0.2, 0.3}, 1.0 / 3},
		{"tied-scores", []float64{1, 1}, []float64{0.1, 0.2}, 0.5},
		{"tied-lats-no-signal", []float64{1, 2}, []float64{0.1, 0.1}, -1},
		{"single", []float64{1}, []float64{0.1}, -1},
		{"empty", nil, nil, -1},
		{"mismatched", []float64{1, 2}, []float64{0.1}, -1},
		{"nan-skipped", []float64{2, 1}, []float64{math.NaN(), 0.2}, -1},
		// A failed build (+Inf) ranks last: scoring it highest is one
		// discordant pair against each finite latency.
		{"inf-ranks-last", []float64{3, 2, 1}, []float64{inf, 0.1, 0.2}, 2.0 / 3},
		{"both-inf-no-signal", []float64{2, 1}, []float64{inf, inf}, -1},
		// A NaN score ranks last and ties with another NaN, whatever
		// the batch order.
		{"nan-score-ranks-last", []float64{math.NaN(), 1}, []float64{1, 2}, 1},
		{"nan-score-ranks-last-permuted", []float64{1, math.NaN()}, []float64{2, 1}, 1},
		{"nan-scores-tie", []float64{math.NaN(), math.NaN()}, []float64{1, 2}, 0.5},
	}
	for _, tc := range cases {
		if got := rankError(tc.scores, tc.lats); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: rankError = %g, want %g", tc.name, got, tc.want)
		}
	}
}

// TestAdaptControllerLaws pins the three laws on the controller's
// constants: budgets start full; perfectly-ranked rounds earn the floor
// batch, four times the policy's draft budget and a window of 2; a
// sibling task keeps its own budget; drift recovers the full batch.
func TestAdaptControllerLaws(t *testing.T) {
	calibrated := func(batch, specBase int) *adaptController {
		ctrl := newAdaptController(batch, specBase)
		for i := 0; i < 12; i++ {
			ctrl.observe("t0", []float64{3, 2, 1}, []float64{0.1, 0.2, 0.3})
		}
		return ctrl
	}
	// Before any observation: zero confidence, full budgets, serial depth.
	ctrl := newAdaptController(10, 512)
	if got := ctrl.verifyBudget("t0"); got != 10 {
		t.Fatalf("unseen verify budget %d, want the full batch 10", got)
	}
	if got := ctrl.draftBudget("t0"); got != 512 {
		t.Fatalf("unseen draft budget %d, want the full 512", got)
	}
	if got := ctrl.targetDepth(); got != 1 {
		t.Fatalf("unseen target depth %d, want 1", got)
	}
	// Perfectly-ranked rounds earn the floor and the full window.
	ctrl = calibrated(10, 512)
	if got := ctrl.verifyBudget("t0"); got != 5 {
		t.Fatalf("calibrated verify budget %d, want the floor 5", got)
	}
	if got := ctrl.draftBudget("t0"); got != 2048 {
		t.Fatalf("calibrated draft budget %d, want 4x512", got)
	}
	if got := ctrl.targetDepth(); got != 2 {
		t.Fatalf("calibrated target depth %d, want 2", got)
	}
	// An uncalibrated sibling task keeps its own full budget.
	if got := ctrl.verifyBudget("t1"); got != 10 {
		t.Fatalf("per-task isolation broken: t1 budget %d, want 10", got)
	}
	// Inverted rounds drive the error back up and budgets recover.
	for i := 0; i < 12; i++ {
		ctrl.observe("t0", []float64{1, 2, 3}, []float64{0.1, 0.2, 0.3})
	}
	if got := ctrl.verifyBudget("t0"); got != 10 {
		t.Fatalf("drifted verify budget %d, want full batch 10", got)
	}
	// No-signal rounds leave the trackers untouched.
	before := ctrl.taskCalib("t0")
	ctrl.observe("t0", []float64{1}, []float64{0.1})
	if ctrl.taskCalib("t0") != before {
		t.Fatal("a signal-free round must not move the tracker")
	}
	// The floor is half the batch, at least 2 and at most the batch
	// itself; a policy with no draft budget gets no override.
	for _, tc := range []struct{ batch, specBase, floor, draft int }{
		{1, 0, 1, 0},
		{3, 0, 2, 0},
		{10, 0, 5, 0},
		{3, 512, 2, 2048},
	} {
		c := calibrated(tc.batch, tc.specBase)
		if got := c.verifyBudget("t0"); got != tc.floor {
			t.Errorf("batch %d: calibrated verify budget %d, want %d", tc.batch, got, tc.floor)
		}
		if got := c.draftBudget("t0"); got != tc.draft {
			t.Errorf("spec base %d: calibrated draft budget %d, want %d", tc.specBase, got, tc.draft)
		}
	}
}

// oracleModel scores candidates with the simulator's true (noise-free)
// latency, negated — a perfectly-calibrated verifier. Unbuildable
// schedules score -Inf, matching their +Inf measured latency. It is the
// "well-modeled task" fixture for the adaptive-budget tests.
type oracleModel struct{ sim *simulator.Simulator }

func (o *oracleModel) Name() string { return "oracle" }

func (o *oracleModel) Predict(t *ir.Task, schs []*schedule.Schedule) []float64 {
	out := make([]float64, len(schs))
	for i, s := range schs {
		lat, err := o.sim.Latency(t, s)
		if err != nil {
			out[i] = math.Inf(-1)
			continue
		}
		out[i] = -lat
	}
	return out
}

func (o *oracleModel) Fit([]costmodel.Record, costmodel.FitOptions) costmodel.FitReport {
	return costmodel.FitReport{}
}
func (o *oracleModel) Params() []*nn.Tensor   { return nil }
func (o *oracleModel) Costs() costmodel.Costs { return costmodel.Costs{} }

// tuneAdaptive runs the fixed-seed adaptive session of the determinism
// suite: tunePipeline's session with AdaptBudget on. The requested depth
// is deliberately part of the matrix — adaptation must make it
// irrelevant.
func tuneAdaptive(depth, parallelism int, m measure.Measurer) *Result {
	return Tune(device.T4, twoTasks(), Options{
		Trials:        60,
		BatchSize:     10,
		Policy:        search.NewPrunerPolicy(),
		Model:         costmodel.NewPaCM(3),
		OnlineTrain:   true,
		Seed:          9,
		Parallelism:   parallelism,
		PipelineDepth: depth,
		Measurer:      m,
		AdaptBudget:   true,
	})
}

// TestAdaptBudgetOffMatchesGolden pins that the controller is inert when
// disabled: an Options literal that spells AdaptBudget: false reproduces
// the pre-refactor golden fingerprint bit for bit.
func TestAdaptBudgetOffMatchesGolden(t *testing.T) {
	res := Tune(device.T4, twoTasks(), Options{
		Trials:        60,
		BatchSize:     10,
		Policy:        search.NewPrunerPolicy(),
		Model:         costmodel.NewPaCM(3),
		OnlineTrain:   true,
		Seed:          9,
		Parallelism:   1,
		PipelineDepth: 1,
		AdaptBudget:   false,
	})
	if got := resultFingerprint(res); got != preRefactorGolden {
		t.Fatalf("AdaptBudget=false fingerprint %s, pre-refactor golden %s", got, preRefactorGolden)
	}
}

// TestTuneAdaptiveDeterministicMatrix is the adaptive determinism
// contract: one session, bitwise identical across Parallelism AND the
// requested PipelineDepth (the controller owns the window, so the
// requested depth cannot matter) AND measurement backends.
func TestTuneAdaptiveDeterministicMatrix(t *testing.T) {
	base := tuneAdaptive(1, 1, nil)
	equalResults(t, "adaptive depth=1,P=1 vs depth=4,P=8", base, tuneAdaptive(4, 8, nil))
	equalResults(t, "adaptive depth=1,P=1 vs depth=16,P=2", base, tuneAdaptive(16, 2, nil))

	ws := httptest.NewServer(measure.NewWorker(measure.WorkerOptions{}).Handler())
	defer ws.Close()
	fleet := measure.NewFleet([]string{ws.URL}, measure.FleetOptions{})
	equalResults(t, "adaptive simulator vs fleet", base, tuneAdaptive(8, 4, fleet))
}

// adaptiveGolden is resultFingerprint(tuneAdaptive(1, 1, nil)), captured
// at d0183bb, before the adaptive score capture moved onto
// search.Context.Verify.
const adaptiveGolden = "041474667a81fd80"

// TestTuneAdaptivePinned pins the adaptive session whole: the matrix
// above only compares it with itself, so a change to the verifier's
// score capture or its clock charge would move every run of it at once
// unseen.
func TestTuneAdaptivePinned(t *testing.T) {
	if got := resultFingerprint(tuneAdaptive(1, 1, nil)); got != adaptiveGolden {
		t.Fatalf("adaptive session fingerprint %s, golden %s", got, adaptiveGolden)
	}
}

// faultyVerifier is PaCM with chosen rows broken: a candidate whose
// schedule Key is 0, 1 or 2 modulo 8 scores NaN, +Inf or −Inf, whatever
// the model computed. Rows are chosen by schedule, not by position, so
// the faults are the same at any batch order or Parallelism. The round
// memo, the pool and the observer reach PaCM through the embedding.
type faultyVerifier struct {
	*costmodel.PaCM
	faults *[3]atomic.Int64 // NaN, +Inf, −Inf rows scored
}

func (m faultyVerifier) Predict(t *ir.Task, schs []*schedule.Schedule) []float64 {
	out := m.PaCM.Predict(t, schs)
	for i, s := range schs {
		switch k := s.Key() % 8; k {
		case 0, 1, 2:
			out[i] = [3]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[k]
			m.faults[k].Add(1)
		}
	}
	return out
}

// TestTuneAdaptiveVerifierFaults runs the adaptive session over a
// verifier that scores chosen rows NaN, +Inf and −Inf. A broken verifier
// may cost the session its speculation, never its results: it runs every
// round, measures exactly the candidates it planned, keeps one
// fingerprint at Parallelism 1 and 4, and reports every CalibError as a
// rank error, within [0, 1].
func TestTuneAdaptiveVerifierFaults(t *testing.T) {
	run := func(parallelism int) *Result {
		var faults [3]atomic.Int64
		planned := 0
		res := Tune(device.T4, twoTasks(), Options{
			Trials:      60,
			BatchSize:   10,
			Policy:      search.NewPrunerPolicy(),
			Model:       faultyVerifier{costmodel.NewPaCM(3), &faults},
			OnlineTrain: true,
			Seed:        9,
			Parallelism: parallelism,
			AdaptBudget: true,
			Progress: func(ev ProgressEvent) {
				planned += ev.Batch
				if !(ev.CalibError >= 0 && ev.CalibError <= 1) {
					t.Errorf("P=%d round %d: CalibError %g outside [0, 1]", parallelism, ev.Round, ev.CalibError)
				}
			},
		})
		for k, name := range []string{"NaN", "+Inf", "-Inf"} {
			if faults[k].Load() == 0 {
				t.Errorf("P=%d: the verifier scored no row %s", parallelism, name)
			}
		}
		if res.Interrupted || res.MeasureErr != nil {
			t.Fatalf("P=%d: session interrupted=%v err=%v", parallelism, res.Interrupted, res.MeasureErr)
		}
		if len(res.Curve) != 6 || len(res.Records) != 60 || planned != 60 {
			t.Fatalf("P=%d: %d rounds, %d records and %d trials in progress events; want the whole budget, 6 rounds of 60 trials",
				parallelism, len(res.Curve), len(res.Records), planned)
		}
		if math.IsInf(res.FinalLatency, 1) {
			t.Fatalf("P=%d: the session never covered the workload", parallelism)
		}
		return res
	}
	if a, b := resultFingerprint(run(1)), resultFingerprint(run(4)); a != b {
		t.Fatalf("fingerprint %s at Parallelism 1, %s at 4", a, b)
	}
}

// adaptComparison runs the fixed/adaptive pair over the oracle verifier —
// the well-modeled case the controller is built for.
func adaptComparison(adaptive bool, m measure.Measurer) *Result {
	return Tune(device.T4, twoTasks(), Options{
		Trials:      60,
		BatchSize:   10,
		Policy:      search.NewPrunerPolicy(),
		Model:       &oracleModel{sim: simulator.New(device.T4)},
		Seed:        9,
		Parallelism: 1,
		Measurer:    m,
		AdaptBudget: adaptive,
	})
}

// TestTuneAdaptiveMeasuresFewer is the perf claim behind the subsystem:
// with a well-calibrated verifier, the adaptive session measures
// substantially fewer candidates at the same Trials budget without
// losing final quality.
func TestTuneAdaptiveMeasuresFewer(t *testing.T) {
	fixed := adaptComparison(false, nil)
	adaptive := adaptComparison(true, nil)
	if len(adaptive.Records) >= len(fixed.Records) {
		t.Fatalf("adaptive session measured %d candidates, fixed %d — no savings",
			len(adaptive.Records), len(fixed.Records))
	}
	if math.IsInf(adaptive.FinalLatency, 1) {
		t.Fatal("adaptive session never covered the workload")
	}
	// Equal-or-better quality at equal budget is the acceptance bar on
	// well-modeled tasks; allow float-level slack only.
	if adaptive.FinalLatency > fixed.FinalLatency*1.02 {
		t.Fatalf("adaptive final latency %g worse than fixed %g",
			adaptive.FinalLatency, fixed.FinalLatency)
	}
	// The controller's decisions must surface in progress events.
	var sawShrunk, sawDeep bool
	res := Tune(device.T4, twoTasks(), Options{
		Trials:      60,
		BatchSize:   10,
		Policy:      search.NewPrunerPolicy(),
		Model:       &oracleModel{sim: simulator.New(device.T4)},
		Seed:        9,
		Parallelism: 1,
		AdaptBudget: true,
		Progress: func(ev ProgressEvent) {
			if ev.VerifyBudget > 0 && ev.VerifyBudget < 10 {
				sawShrunk = true
			}
			if ev.TargetDepth > 1 {
				sawDeep = true
			}
		},
	})
	if !sawShrunk || !sawDeep {
		t.Fatalf("controller state missing from progress events (shrunk=%v deep=%v, %d records)",
			sawShrunk, sawDeep, len(res.Records))
	}
}

// perCandidateMeasurer charges wire latency per schedule rather than per
// batch, so a shrunken verify batch actually saves wall-clock — the
// shape of real measurement cost (each candidate runs on hardware).
type perCandidateMeasurer struct {
	slowMeasurer
	per time.Duration
}

func (p *perCandidateMeasurer) Info() measure.Info {
	info := p.adapter().Info()
	info.Name = "per-candidate"
	return info
}

func (p *perCandidateMeasurer) Measure(ctx context.Context, req measure.Request) ([]measure.Result, error) {
	select {
	case <-time.After(time.Duration(len(req.Batch)) * p.per):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return p.adapter().Measure(ctx, req)
}

// BenchmarkTuneAdaptive is the fixed-vs-adaptive sweep CI runs via
// `make bench-smoke`: the same oracle-verified session against a
// per-candidate-latency backend, fixed budgets vs the controller. The
// measured-candidate count is reported as a metric; the wall-clock gap
// is the verification the controller skipped plus the pipeline overlap
// it earned.
func BenchmarkTuneAdaptive(b *testing.B) {
	for _, adaptive := range []bool{false, true} {
		name := "fixed"
		if adaptive {
			name = "adaptive"
		}
		b.Run(name, func(b *testing.B) {
			var measured int
			for i := 0; i < b.N; i++ {
				res := adaptComparison(adaptive, &perCandidateMeasurer{per: 2 * time.Millisecond})
				measured = len(res.Records)
			}
			b.ReportMetric(float64(measured), "measured")
		})
	}
}
