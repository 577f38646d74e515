package tuner

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"pruner/internal/costmodel"
	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/measure"
	"pruner/internal/nn"
	"pruner/internal/obs"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
	"pruner/internal/search"
	"pruner/internal/simulator"
)

// preRefactorGolden is the resultFingerprint of tuneAt(1) captured at the
// commit immediately before the measurement subsystem / pipelined-engine
// refactor (the serial `for round` loop calling the simulator directly).
// PipelineDepth=1 must keep reproducing it bitwise: the pipeline at depth
// one IS the historical serial loop.
const preRefactorGolden = "cfe0bde7d409aa97"

// resultFingerprint reduces a Result to a stable hex digest covering every
// bit of observable session output: the curve, the full record log, the
// clock, per-task bests and the summary fields. Two Results with the same
// fingerprint are bitwise-identical for the determinism contract's
// purposes.
func resultFingerprint(res *Result) string {
	h := fnv.New64a()
	w := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	bits := func(f float64) uint64 { return math.Float64bits(f) }
	w("curve:%d;", len(res.Curve))
	for _, p := range res.Curve {
		w("%d,%d,%x,%x;", p.Round, p.Trials, bits(p.SimSeconds), bits(p.WorkloadLat))
	}
	w("records:%d;", len(res.Records))
	for _, r := range res.Records {
		w("%s,%s,%x;", r.Task.ID, r.Sched.Fingerprint(), bits(r.Latency))
	}
	w("clock:%x,%x,%x;", bits(res.Clock.Exploration), bits(res.Clock.Training), bits(res.Clock.Measurement))
	w("final:%x;warm:%d;int:%v;", bits(res.FinalLatency), res.Warm, res.Interrupted)
	ids := make([]string, 0, len(res.Best))
	for id := range res.Best {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		b := res.Best[id]
		fp := "<nil>"
		if b.Sched != nil {
			fp = b.Sched.Fingerprint()
		}
		w("best:%s,%s,%x;", id, fp, bits(b.Latency))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// tunePipeline runs the fixed-seed session of the determinism suite with
// explicit pipeline/measurer settings.
func tunePipeline(depth, parallelism int, m measure.Measurer) *Result {
	return Tune(device.T4, twoTasks(), Options{
		Trials:        60,
		BatchSize:     10,
		Policy:        search.NewPrunerPolicy(),
		Model:         costmodel.NewPaCM(3),
		OnlineTrain:   true,
		Seed:          9,
		Pool:          parallel.New(parallelism),
		PipelineDepth: depth,
		Measurer:      m,
	})
}

// TestTunePipelineDepth1MatchesPreRefactorGolden is the refactor's anchor:
// the pipelined engine at depth 1 (explicit or default) reproduces the
// pre-refactor serial loop bit for bit — same curve, records, clock,
// bests.
func TestTunePipelineDepth1MatchesPreRefactorGolden(t *testing.T) {
	if got := resultFingerprint(tuneAt(parallel.New(1))); got != preRefactorGolden {
		t.Fatalf("default-depth session fingerprint %s, pre-refactor golden %s", got, preRefactorGolden)
	}
	if got := resultFingerprint(tunePipeline(1, 1, nil)); got != preRefactorGolden {
		t.Fatalf("depth-1 session fingerprint %s, pre-refactor golden %s", got, preRefactorGolden)
	}
}

// goldenMatrix widens the single golden into a pinned policy x model x
// device matrix: every learned model's verify path (batched Predict) and
// fit path (online rankFit, MoA's Siamese update) feeds each digest, so a
// change to any kernel, forward or trainer that moves one bit of one
// score moves a hash. Hashes are resultFingerprint values captured from
// the sources that produced preRefactorGolden's current value.
var goldenMatrix = []struct {
	name   string
	dev    *device.Device
	golden string
	opt    func() Options
}{
	{"pruner+pacm/orin", device.Orin, "69731aacdcf85fd0", func() Options {
		return Options{Trials: 40, Policy: search.NewPrunerPolicy(), Model: costmodel.NewPaCM(3), OnlineTrain: true}
	}},
	{"ansor+tensetmlp/t4", device.T4, "0ef02b14379c57b7", func() Options {
		return Options{Trials: 40, Policy: smallAnsorPolicy(), Model: costmodel.NewTenSetMLP(4), OnlineTrain: true}
	}},
	{"ansor+tlp/orin", device.Orin, "d230c979c365c354", func() Options {
		return Options{Trials: 30, Policy: smallAnsorPolicy(), Model: costmodel.NewTLP(5), OnlineTrain: true}
	}},
	{"ansor+tlp/t4", device.T4, "e0f76551b1c7a0d2", func() Options {
		return Options{Trials: 20, Policy: smallAnsorPolicy(), Model: costmodel.NewTLP(6), OnlineTrain: true, PipelineDepth: 2, Pool: parallel.New(4)}
	}},
	{"moa+pacm/orin", device.Orin, "6dae753f4ff547b2", func() Options {
		return Options{Trials: 40, Policy: search.NewPrunerPolicy(), Model: costmodel.NewPaCM(7), OnlineTrain: true,
			Adaptation: AdaptMoA, Pretrained: tinyPretrainedPaCM()}
	}},
	{"moa+pacm/t4", device.T4, "4359ec6e3c3fb1a4", func() Options {
		return Options{Trials: 30, Policy: search.NewPrunerPolicy(), Model: costmodel.NewPaCM(8), OnlineTrain: true,
			Adaptation: AdaptMoA, Pretrained: tinyPretrainedPaCM(), Pool: parallel.New(4)}
	}},
}

// smallAnsorPolicy is Ansor's evolutionary search at a test-sized
// population (the default scores 8000 candidates a round).
func smallAnsorPolicy() *search.EvoPolicy {
	p := search.NewAnsorPolicy()
	p.Evo = search.EvoParams{Population: 192, Generations: 2, MutateProb: 0.85, CrossProb: 0.05}
	return p
}

// tinyPretrainedPaCM is MoA's source-platform snapshot at test scale: a
// PaCM fitted for two epochs on 48 K80-simulated records of the session's
// own tasks.
func tinyPretrainedPaCM() []*nn.Tensor {
	rng := rand.New(rand.NewSource(21))
	sim := simulator.New(device.K80)
	var recs []costmodel.Record
	for _, task := range twoTasks() {
		gen := schedule.NewGenerator(task)
		gen.MaxSharedWords = device.K80.SharedPerBlock
		schs := gen.InitPopulation(rng, 24)
		for i, r := range sim.Measure(task, schs, rng) {
			if r.Valid {
				recs = append(recs, costmodel.Record{Task: task, Sched: schs[i], Latency: r.Latency})
			}
		}
	}
	pre := costmodel.NewPaCM(11)
	pre.Fit(recs, costmodel.FitOptions{Epochs: 2, Seed: 22})
	return SnapshotParams(pre)
}

// TestTunePipelineGoldenMatrix pins every cell of goldenMatrix to its
// captured fingerprint.
func TestTunePipelineGoldenMatrix(t *testing.T) {
	for _, cell := range goldenMatrix {
		opt := cell.opt()
		opt.BatchSize = 10
		opt.Seed = 9
		if got := resultFingerprint(Tune(cell.dev, twoTasks(), opt)); got != cell.golden {
			t.Errorf("%s: session fingerprint %s, golden %s", cell.name, got, cell.golden)
		}
	}
}

// TestTunePipelineDeterministicAcrossParallelism extends the bitwise
// contract to deep pipelines: a fixed depth > 1 produces identical
// results at any worker count, because plan/commit interleaving is fixed
// by the engine, not by measurement timing.
func TestTunePipelineDeterministicAcrossParallelism(t *testing.T) {
	serial := tunePipeline(4, 1, nil)
	equalResults(t, "depth=4 P=1 vs P=8", serial, tunePipeline(4, 8, nil))
	if len(serial.Records) != 60 {
		t.Fatalf("depth-4 session measured %d records, want the full 60-trial budget", len(serial.Records))
	}
}

// TestTunePipelineDepthPastRoundCount pins the window's size: a depth
// above the session's round count behaves as depth = rounds, and
// math.MaxInt (reachable through pruner-tune -pipeline-depth) neither
// panics sizing the window nor tries to allocate for it.
func TestTunePipelineDepthPastRoundCount(t *testing.T) {
	const rounds = 6 // tunePipeline's 60 trials in batches of 10
	want := resultFingerprint(tunePipeline(rounds, 2, nil))
	if got := resultFingerprint(tunePipeline(math.MaxInt, 2, nil)); got != want {
		t.Fatalf("depth math.MaxInt fingerprint %s, depth %d gives %s", got, rounds, want)
	}
}

// TestTunePipelineFleetMatchesSimulator is the fleet's determinism
// contract end to end: the same session measured through a loopback HTTP
// worker fleet is bitwise identical to the in-process simulator adapter,
// at depth 1 and at depth 4 (where several batches ride the wire
// concurrently).
func TestTunePipelineFleetMatchesSimulator(t *testing.T) {
	ws := httptest.NewServer(measure.NewWorker(measure.WorkerOptions{}).Handler())
	defer ws.Close()
	for _, depth := range []int{1, 4} {
		fleet := measure.NewFleet([]string{ws.URL}, measure.FleetOptions{})
		sim := tunePipeline(depth, 4, nil)
		remote := tunePipeline(depth, 4, fleet)
		equalResults(t, fmt.Sprintf("depth=%d simulator vs fleet", depth), sim, remote)
	}
}

// TestTunePipelineTimingIndependent pins that backend latency cannot
// change results: a measurer that sleeps per batch commits the same
// session as the instant one, at depth > 1 where slow batches overlap
// later plans.
func TestTunePipelineTimingIndependent(t *testing.T) {
	fast := tunePipeline(3, 4, nil)
	slow := tunePipeline(3, 4, &slowMeasurer{delay: 3 * time.Millisecond})
	equalResults(t, "depth=3 fast vs slow measurer", fast, slow)
}

// slowMeasurer injects wire-style latency in front of the in-process
// adapter (benchmarks and timing-independence tests). inner is built
// lazily against the session's device via the request.
type slowMeasurer struct {
	delay time.Duration
	inner *measure.Sim
}

func (s *slowMeasurer) Info() measure.Info {
	info := s.adapter().Info()
	info.Name = "slow-simulator"
	return info
}

func (s *slowMeasurer) adapter() *measure.Sim {
	if s.inner == nil {
		s.inner = measure.NewSim(simulator.New(device.T4))
	}
	return s.inner
}

func (s *slowMeasurer) Measure(ctx context.Context, req measure.Request) ([]measure.Result, error) {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.adapter().Measure(ctx, req)
}

// blockingMeasurer blocks every batch until its context dies — the
// regression fake for mid-batch cancellation. dispatched is closed when
// the first batch arrives.
type blockingMeasurer struct {
	dispatched chan struct{}
	closed     bool
}

func (b *blockingMeasurer) Info() measure.Info {
	return measure.Info{Name: "blocking"}
}

func (b *blockingMeasurer) Measure(ctx context.Context, req measure.Request) ([]measure.Result, error) {
	if !b.closed {
		b.closed = true
		close(b.dispatched)
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestTuneCancelMidBatch is the cancellation-latency regression test:
// with a measurement backend that never returns, DELETE-style context
// cancellation must abort the in-flight batch and return the partial
// session promptly — historically the context was only checked between
// rounds, so a wedged batch wedged the job.
func TestTuneCancelMidBatch(t *testing.T) {
	bm := &blockingMeasurer{dispatched: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan *Result, 1)
	go func() {
		done <- Tune(device.T4, twoTasks(), Options{
			Trials:    40,
			BatchSize: 10,
			Policy:    search.NewPrunerPolicy(),
			Model:     costmodel.NewPaCM(3),
			Seed:      9,
			Ctx:       ctx,
			Measurer:  bm,
		})
	}()
	<-bm.dispatched // a batch is in flight and will never finish on its own
	cancel()
	select {
	case res := <-done:
		if !res.Interrupted {
			t.Fatal("mid-batch cancellation must mark the session interrupted")
		}
		if len(res.Records) != 0 || len(res.Curve) != 0 {
			t.Fatalf("the blocked round must not commit: %d records, %d curve points",
				len(res.Records), len(res.Curve))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("session did not return after mid-batch cancellation")
	}

	// Cancelled mid-draft while round 0's fit is still in flight (the fit
	// waits until round 1's draft has cancelled the session): round 0 is
	// committed, so its curve point and Progress event still arrive once
	// the fit joins, the truncated round 1 is dropped with its plan span
	// ended as cancelled, and no fit outlives the session.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	cancelled := make(chan struct{})
	var sawCancel atomic.Bool
	m := newProbeModel(func(k int) {
		if k == 0 {
			sawCancel.Store(waitGate(cancelled))
		}
	})
	ob := obs.New(nil, 0)
	var events []ProgressEvent
	res := Tune(device.T4, twoTasks(), Options{
		Trials:    30,
		BatchSize: 10,
		Policy: &probePolicy{Policy: smallPrunerPolicy(), onDraft: func(k int) {
			if k == 1 {
				cancel2()
				close(cancelled)
			}
		}},
		Model:       m,
		OnlineTrain: true,
		Seed:        9,
		Pool:        parallel.New(2),
		Ctx:         ctx2,
		Progress:    func(ev ProgressEvent) { events = append(events, ev) },
		Obs:         ob,
	})
	if !sawCancel.Load() {
		t.Fatal("round 0's fit was not in flight when round 1's draft cancelled")
	}
	if !res.Interrupted || len(res.Records) != 10 {
		t.Fatalf("interrupted=%v with %d records, want true and round 0's 10", res.Interrupted, len(res.Records))
	}
	gaplessRounds(t, res, events, 1)
	if n := m.running.Load(); n != 0 {
		t.Fatalf("%d fits still running after Tune returned", n)
	}
	plans := spansNamed(ob, "tuner.plan")
	if len(plans) != 2 || spanAttr(plans[1], "cancelled") != true {
		t.Fatalf("want round 1's plan span ended as cancelled, got %+v", plans)
	}
}

// failAfterMeasurer serves batches through the in-process adapter until
// allow batches have run, then errors — the fake for a fleet whose
// workers die mid-session.
type failAfterMeasurer struct {
	slowMeasurer
	allow   int
	batches int
}

func (f *failAfterMeasurer) Info() measure.Info {
	return measure.Info{Name: "fail-after", MeasureNoise: f.adapter().Info().MeasureNoise}
}

func (f *failAfterMeasurer) Measure(ctx context.Context, req measure.Request) ([]measure.Result, error) {
	f.batches++
	if f.batches > f.allow {
		return nil, fmt.Errorf("all workers down")
	}
	return f.adapter().Measure(ctx, req)
}

// TestTuneBackendFailureStopsWithoutPoisonedRecords pins the
// backend-failure semantics: when the measurement backend dies
// mid-session, the session stops with the committed prefix and
// MeasureErr set — the failed batch is NOT recorded as +Inf failed
// builds, so transient fleet trouble can never be persisted as
// permanent history and poison warm-started sessions.
func TestTuneBackendFailureStopsWithoutPoisonedRecords(t *testing.T) {
	ob := obs.New(nil, 0)
	res := Tune(device.T4, twoTasks(), Options{
		Trials:    40,
		BatchSize: 10,
		Policy:    search.NewPrunerPolicy(),
		Model:     costmodel.NewPaCM(3),
		Seed:      9,
		Measurer:  &failAfterMeasurer{allow: 2},
		Obs:       ob,
	})
	if !res.Interrupted || res.MeasureErr == nil {
		t.Fatalf("backend failure must interrupt with MeasureErr, got interrupted=%v err=%v",
			res.Interrupted, res.MeasureErr)
	}
	if len(res.Records) != 20 || len(res.Curve) != 2 {
		t.Fatalf("session must keep exactly the committed prefix: %d records, %d curve points (want 20, 2)",
			len(res.Records), len(res.Curve))
	}
	for _, r := range res.Records {
		if math.IsInf(r.Latency, 1) {
			t.Fatal("a fabricated +Inf record leaked from the failed batch")
		}
	}
	// The armed observer holds the span where the job stopped: the failed
	// round's commit, ended with err.
	commits := spansNamed(ob, "tuner.commit")
	if len(commits) != 3 || spanAttr(commits[2], "round") != 2 || spanAttr(commits[2], "err") != true {
		t.Fatalf("want the failed round 2's commit span ended with err, got %+v", commits)
	}

	// The backend fails while round 0's fit is in flight: at depth 2 both
	// batches are out before round 0 commits; round 1's task fails, and
	// the fit waits until it has. Round 0 still emits, gaplessly, once
	// the fit joins; the failed batch is dropped and no fit outlives the
	// session.
	failing := &taskFailMeasurer{taskID: twoTasks()[1].ID, failed: make(chan struct{})}
	var sawFailure atomic.Bool
	m := newProbeModel(func(k int) {
		if k == 0 {
			sawFailure.Store(waitGate(failing.failed))
		}
	})
	var events []ProgressEvent
	res = Tune(device.T4, twoTasks(), Options{
		Trials:        20,
		BatchSize:     10,
		Policy:        smallPrunerPolicy(),
		Model:         m,
		OnlineTrain:   true,
		Seed:          9,
		Pool:          parallel.New(2),
		PipelineDepth: 2,
		Measurer:      failing,
		Progress:      func(ev ProgressEvent) { events = append(events, ev) },
	})
	if !sawFailure.Load() {
		t.Fatal("round 0's fit was not in flight when the backend failed")
	}
	if res.MeasureErr == nil || len(res.Records) != 10 {
		t.Fatalf("MeasureErr=%v with %d records, want an error and round 0's 10", res.MeasureErr, len(res.Records))
	}
	gaplessRounds(t, res, events, 1)
	if n := m.running.Load(); n != 0 {
		t.Fatalf("%d fits still running after Tune returned", n)
	}
}

// taskFailMeasurer serves every batch through the in-process adapter
// except those of one task, which fail (closing failed) — a backend fault
// pinned to a round by its task rather than by dispatch order, which a
// pipelined window does not fix.
type taskFailMeasurer struct {
	slowMeasurer
	taskID string
	failed chan struct{}
}

func (f *taskFailMeasurer) Info() measure.Info {
	return measure.Info{Name: "task-fail", MeasureNoise: f.adapter().Info().MeasureNoise}
}

func (f *taskFailMeasurer) Measure(ctx context.Context, req measure.Request) ([]measure.Result, error) {
	if req.Task.ID == f.taskID {
		close(f.failed)
		return nil, fmt.Errorf("all workers down")
	}
	return f.adapter().Measure(ctx, req)
}

// emptyRoundPolicy proposes a normal random batch except on the rounds in
// skip, where it returns nothing — the fake for the empty-batch
// accounting fix.
type emptyRoundPolicy struct {
	calls int
	skip  map[int]bool
}

func (p *emptyRoundPolicy) Name() string { return "empty-round" }

func (p *emptyRoundPolicy) NextBatch(ctx *search.Context, n int) []*schedule.Schedule {
	call := p.calls
	p.calls++
	if p.skip[call] {
		return nil
	}
	var out []*schedule.Schedule
	for tries := 0; len(out) < n && tries < n*64; tries++ {
		s := ctx.Gen.Random(ctx.RNG)
		if !ctx.MeasuredSet[s.Fingerprint()] {
			ctx.MeasuredSet[s.Fingerprint()] = true // conservative local dedup
			out = append(out, s)
		}
	}
	return out
}

// TestTuneEmptyBatchRoundsAreGapless pins the empty-batch satellite fix:
// a round whose policy proposes nothing still emits its curve point and
// Progress event (Batch=0), so SSE consumers see contiguous round
// numbers instead of jumps.
func TestTuneEmptyBatchRoundsAreGapless(t *testing.T) {
	var events []ProgressEvent
	res := Tune(device.T4, []*ir.Task{twoTasks()[0]}, Options{
		Trials:    30,
		BatchSize: 10,
		Policy:    &emptyRoundPolicy{skip: map[int]bool{1: true}},
		Model:     costmodel.NewRandom(3),
		Seed:      9,
		Progress:  func(ev ProgressEvent) { events = append(events, ev) },
	})
	if len(res.Curve) != 3 {
		t.Fatalf("curve has %d points, want one per round (3)", len(res.Curve))
	}
	if len(events) != 3 {
		t.Fatalf("saw %d progress events, want 3", len(events))
	}
	for i, ev := range events {
		if ev.Round != i || res.Curve[i].Round != i {
			t.Fatalf("round accounting has gaps: event %d has Round=%d, curve Round=%d", i, ev.Round, res.Curve[i].Round)
		}
		if ev.Measurer != "simulator" || ev.InFlight != 1 {
			t.Fatalf("event %d: Measurer=%q InFlight=%d, want simulator/1", i, ev.Measurer, ev.InFlight)
		}
	}
	if events[1].Batch != 0 {
		t.Fatalf("skipped round reported Batch=%d, want 0", events[1].Batch)
	}
	if events[0].Batch != 10 || events[2].Batch != 10 {
		t.Fatalf("full rounds reported batches %d/%d, want 10/10", events[0].Batch, events[2].Batch)
	}
	if len(res.Records) != 20 {
		t.Fatalf("session measured %d records, want 20 (one round skipped)", len(res.Records))
	}
}

// TestTunePipelineReportsInFlight pins the new ProgressEvent pipeline
// fields: at depth 3 the steady-state rounds commit with a full window.
func TestTunePipelineReportsInFlight(t *testing.T) {
	var events []ProgressEvent
	Tune(device.T4, twoTasks(), Options{
		Trials:        60,
		BatchSize:     10,
		Policy:        search.NewPrunerPolicy(),
		Model:         costmodel.NewPaCM(3),
		OnlineTrain:   true,
		Seed:          9,
		PipelineDepth: 3,
		Progress:      func(ev ProgressEvent) { events = append(events, ev) },
	})
	maxInFlight := 0
	for _, ev := range events {
		if ev.InFlight > maxInFlight {
			maxInFlight = ev.InFlight
		}
	}
	if maxInFlight != 3 {
		t.Fatalf("max InFlight %d, want the pipeline depth 3", maxInFlight)
	}
	if last := events[len(events)-1]; last.InFlight != 1 {
		t.Fatalf("drain must shrink the window: last round InFlight %d, want 1", last.InFlight)
	}
}

// BenchmarkTunePipeline sweeps the pipeline depth against a
// latency-injected measurer. The 180 ms per-batch delay mirrors the
// paper's Table 1 measurement share (~44 of ~85 minutes on Orin ≈ half
// of round wall-clock at this benchmark's search cost): at depth 1 the
// session alternates search and waiting; deeper windows overlap the wait
// with the next round's search and the online fit, hiding most of the
// measurement latency even on one core (the wait is I/O-shaped, not CPU
// work). EXPERIMENTS.md records the measured overlap speedup.
func BenchmarkTunePipeline(b *testing.B) {
	for _, depth := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tunePipeline(depth, 0, &slowMeasurer{delay: 180 * time.Millisecond})
			}
		})
	}
}
