package search

import (
	"math"
	"math/rand"
	"testing"

	"pruner/internal/costmodel"
	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/schedule"
)

// fractionalSharedSetup returns an FP16 task and a schedule whose shared
// demand lands a fraction of a word over the given budget: FP16 halves
// the per-element word count, so odd tile extents produce x.5 word
// demands — the case the truncating filter admitted.
func fractionalSharedSetup(t *testing.T) (*ir.Task, *schedule.Schedule, float64) {
	t.Helper()
	task := ir.NewMatMul(6, 8, 14, ir.FP16, 0)
	// Block tiles: A stages 3*7 = 21 elements, B stages 4*7 = 28; the 49
	// FP16 elements make 24.5 four-byte words — a fractional demand.
	s := &schedule.Schedule{
		SpatialTiles: [][schedule.NumSpatialLevels]int{
			{2, 1, 1, 3, 1}, {2, 2, 1, 2, 1},
		},
		ReduceTiles: [][schedule.NumReduceLevels]int{{2, 7, 1}},
		VectorLen:   1,
		UseShared:   true,
	}
	if err := s.Validate(task); err != nil {
		t.Fatalf("setup schedule invalid: %v", err)
	}
	lw := schedule.Lower(task, s)
	words4 := lw.SharedPerBlock * float64(task.Precision.Bytes()) / 4
	if words4 != math.Trunc(words4) {
		return task, s, words4
	}
	t.Fatalf("setup produced integral shared words %v; want fractional", words4)
	return nil, nil, 0
}

// TestGeneratorFitsRejectsFractionallyOverBudget is the regression test
// for the truncation bug: a schedule needing budget+0.5 words must not
// pass a budget-word validity filter. Generator.Fits is the one such
// filter; the sampler and pickBatch both admit through it.
func TestGeneratorFitsRejectsFractionallyOverBudget(t *testing.T) {
	task, s, words4 := fractionalSharedSetup(t)
	gen := schedule.NewGenerator(task)
	gen.MaxSharedWords = int(math.Floor(words4))
	if gen.Fits(s) {
		t.Fatalf("generator admitted %v words against a %d-word budget", words4, gen.MaxSharedWords)
	}
	gen.MaxSharedWords = int(math.Ceil(words4))
	if !gen.Fits(s) {
		t.Fatalf("generator rejected %v words against a %d-word budget", words4, gen.MaxSharedWords)
	}
}

// launchFits recomputes a schedule's launch budget from its lowering,
// independently of Generator.Fits: threads per block within the device's
// cap, and the shared words, rounded up, within its per-block budget.
func launchFits(task *ir.Task, dev *device.Device, s *schedule.Schedule) bool {
	lw := schedule.Lower(task, s)
	words4 := lw.SharedPerBlock * float64(task.Precision.Bytes()) / 4
	return lw.ThreadsPerBlock <= dev.MaxThreads && int(math.Ceil(words4)) <= dev.SharedPerBlock
}

// TestPickBatchDropsOverBudget: a top-ranked candidate the device cannot
// launch — fractionally over the shared budget, or over the thread cap —
// never reaches the batch. The generator's own draws already fit, so only
// candidates from elsewhere (a measured history, a hand-built seed) test
// the filter.
func TestPickBatchDropsOverBudget(t *testing.T) {
	task, shared, words4 := fractionalSharedSetup(t)
	dev := *device.A100
	dev.SharedPerBlock = int(math.Floor(words4))
	threads := shared.Clone()
	threads.SpatialTiles[0][schedule.LvlThread] = 2 * dev.MaxThreads
	ctx := newCtx(task, &dev, 5)
	ranked := []scored{{sch: shared, score: 2}, {sch: threads, score: 1}}
	batch := pickBatch(ctx, ranked, 4, 0)
	if len(batch) == 0 {
		t.Fatal("empty batch")
	}
	for _, s := range batch {
		if s.Same(shared) || s.Same(threads) {
			t.Fatalf("over-budget candidate %s admitted", s.Fingerprint())
		}
		if !launchFits(task, &dev, s) {
			t.Fatalf("batch schedule %s exceeds the launch budget", s.Fingerprint())
		}
	}
}

// TestRollerAlignedUsesDeviceCap: rollerAligned must honour the device
// preset's thread cap instead of a hardcoded 1024.
func TestRollerAlignedUsesDeviceCap(t *testing.T) {
	s := &schedule.Schedule{
		SpatialTiles: [][schedule.NumSpatialLevels]int{
			{2, 32, 1, 2, 1}, {2, 32, 1, 2, 1}, // 1024 threads
		},
		ReduceTiles: [][schedule.NumReduceLevels]int{{4, 4, 4}},
		VectorLen:   1, UseShared: true,
	}
	if s.ThreadsPerBlock() != 1024 {
		t.Fatalf("setup: %d threads", s.ThreadsPerBlock())
	}
	if !rollerAligned(device.A100, s) {
		t.Fatal("1024-thread schedule should align on a 1024-cap device")
	}
	capped := *device.A100
	capped.MaxThreads = 512
	if rollerAligned(&capped, s) {
		t.Fatal("1024-thread schedule must not align on a 512-cap device")
	}
	// Warp-size plumb: a 48-thread schedule misaligns at warp 32 but
	// aligns on a (hypothetical) 16-wide-warp device.
	narrow := &schedule.Schedule{
		SpatialTiles: [][schedule.NumSpatialLevels]int{
			{2, 48, 1, 2, 1}, {2, 1, 1, 2, 1},
		},
		ReduceTiles: [][schedule.NumReduceLevels]int{{4, 4, 4}},
		VectorLen:   1, UseShared: true,
	}
	if rollerAligned(device.A100, narrow) {
		t.Fatal("48 threads are not warp-aligned at warp size 32")
	}
	wide := *device.A100
	wide.WarpSize = 16
	if !rollerAligned(&wide, narrow) {
		t.Fatal("48 threads align at warp size 16")
	}
}

// TestRunLSEFieldwiseDefaults: setting SpecSize alone must not silently
// produce an empty draft set (the old all-or-nothing defaulting bug).
func TestRunLSEFieldwiseDefaults(t *testing.T) {
	task := ir.NewMatMul(128, 128, 128, ir.FP32, 0)
	ctx := newCtx(task, device.A100, 11)
	// Steps and Population left zero: each must default independently.
	spec := RunLSE(ctx, LSEParams{SpecSize: 24})
	if len(spec) == 0 {
		t.Fatal("SpecSize-only params produced an empty draft set")
	}
	if len(spec) > 24 {
		t.Fatalf("draft set %d exceeds requested SpecSize 24", len(spec))
	}

	p := LSEParams{Steps: 3}.withDefaults()
	def := DefaultLSEParams()
	if p.Steps != 3 {
		t.Fatalf("explicit Steps overwritten: %d", p.Steps)
	}
	if p.SpecSize != def.SpecSize || p.Population != def.Population ||
		p.MutateProb != def.MutateProb || p.CrossProb != def.CrossProb {
		t.Fatalf("unset fields not defaulted: %+v", p)
	}
}

// TestPolicyContractProperty is the policy contract across seeds and
// devices: every schedule a policy proposes fits the device's launch
// budget (including the ceil-checked shared budget, recomputed by
// launchFits), unmeasured, valid and deduplicated.
func TestPolicyContractProperty(t *testing.T) {
	tasks := []*ir.Task{
		ir.NewMatMul(256, 384, 512, ir.FP32, 1),
		ir.NewMatMul(128, 256, 130, ir.FP16, 0), // odd extent: fractional shared demands
	}
	mkPolicies := func() []Policy {
		a := NewAnsorPolicy()
		a.Evo = EvoParams{Population: 64, Generations: 2, MutateProb: 0.8, CrossProb: 0.1}
		m := NewMetaSchedulePolicy()
		m.Evo = EvoParams{Population: 64, Generations: 2, MutateProb: 0.8, CrossProb: 0.1}
		p := NewPrunerPolicy()
		p.LSE = LSEParams{SpecSize: 32, Population: 48, Steps: 2, MutateProb: 0.8, CrossProb: 0.1}
		p.RandomDraft = 12
		p.ExploitDraft = 8
		r := NewRollerPolicy()
		r.CandidatePool = 256
		return []Policy{a, m, p, r}
	}
	for _, task := range tasks {
		for seed := int64(1); seed <= 3; seed++ {
			for _, dev := range []*device.Device{device.T4, device.Orin} {
				for _, p := range mkPolicies() {
					ctx := newCtx(task, dev, seed)
					ctx.Model = costmodel.NewRandom(seed)
					ctx.Memo = schedule.NewMemo()
					rng := rand.New(rand.NewSource(seed * 77))
					for i := 0; i < 6; i++ {
						fp := ctx.Gen.Random(rng).Fingerprint()
						ctx.MeasuredSet[fp] = true
					}
					batch := p.NextBatch(ctx, 8)
					if len(batch) == 0 {
						t.Fatalf("%s/%s seed %d: empty batch", p.Name(), dev.Name, seed)
					}
					seen := map[string]bool{}
					for _, s := range batch {
						if err := s.Validate(task); err != nil {
							t.Fatalf("%s/%s seed %d: invalid schedule: %v", p.Name(), dev.Name, seed, err)
						}
						fp := s.Fingerprint()
						if seen[fp] {
							t.Fatalf("%s/%s seed %d: duplicate in batch", p.Name(), dev.Name, seed)
						}
						if ctx.MeasuredSet[fp] {
							t.Fatalf("%s/%s seed %d: re-proposed a measured schedule", p.Name(), dev.Name, seed)
						}
						if !launchFits(task, dev, s) {
							t.Fatalf("%s/%s seed %d: unbuildable schedule proposed", p.Name(), dev.Name, seed)
						}
						seen[fp] = true
					}
				}
			}
		}
	}
}
