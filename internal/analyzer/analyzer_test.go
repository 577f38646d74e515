package analyzer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/schedule"
)

// fig3Lowered reproduces the paper's Figure 3 GEMM-ReLU schedule.
func fig3Lowered() *schedule.Lowered {
	task := ir.NewMatMul(128, 128, 128, ir.FP32, 1)
	s := &schedule.Schedule{
		SpatialTiles: [][schedule.NumSpatialLevels]int{
			{4, 8, 2, 2, 1},
			{2, 16, 1, 2, 2},
		},
		ReduceTiles: [][schedule.NumReduceLevels]int{{8, 4, 4}},
		UnrollStep:  64,
		VectorLen:   1,
		UseShared:   true,
	}
	return schedule.Lower(task, s)
}

func TestExtractSymbolsFig3(t *testing.T) {
	sy := Extract(fig3Lowered())
	if sy.S1L0MemAlloc != 24 {
		t.Errorf("S1 = %g want 24", sy.S1L0MemAlloc)
	}
	if sy.S2L0CompCount != 2048 {
		t.Errorf("S2 = %g want 2048", sy.S2L0CompCount)
	}
	if sy.S3L1MemAlloc != 1536 {
		t.Errorf("S3 = %g want 1536", sy.S3L1MemAlloc)
	}
	if sy.S4L1ParaInfo != 128 {
		t.Errorf("S4 = %g want 128", sy.S4L1ParaInfo)
	}
	if sy.S6L2ParaInfo != 8 {
		t.Errorf("S6 = %g want 8", sy.S6L2ParaInfo)
	}
	if sy.S8L2CompCount != 2*128*128*128+128*128 {
		t.Errorf("S8 = %g", sy.S8L2CompCount)
	}
	// S7: min contiguous run across L2 statements. A is contiguous along
	// k (K1*K2 = 16), B along j (block tile 64), C along j (64).
	if sy.S7L2TransDim != 16 {
		t.Errorf("S7 = %g want 16", sy.S7L2TransDim)
	}
}

func TestPenaltyBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(device.A100)
	task := ir.NewMatMul(384, 512, 640, ir.FP32, 1)
	g := schedule.NewGenerator(task)
	for i := 0; i < 200; i++ {
		lw := schedule.Lower(task, g.Random(rng))
		p := a.Penalties(lw)
		for name, v := range map[string]float64{
			"PL0M": p.PL0M, "PL0C": p.PL0C, "PL1M": p.PL1M, "PL1C": p.PL1C,
			"AlphaL1": p.AlphaL1, "PL2C": p.PL2C, "PL2M": p.PL2M, "PTC": p.PTC,
		} {
			if v <= 0 || v > 1 {
				t.Fatalf("%s = %g out of (0,1]", name, v)
			}
		}
	}
}

func TestQuantUtilisation(t *testing.T) {
	cases := []struct{ x, unit, want float64 }{
		{6, 4, 0.75}, // the paper's example: 6 blocks on 4 units
		{4, 4, 1},
		{1, 4, 0.25},
		{9, 4, 0.75},
		{0, 4, 1},
	}
	for _, c := range cases {
		if got := quant(c.x, c.unit); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quant(%g,%g) = %g want %g", c.x, c.unit, got, c.want)
		}
	}
}

func TestEstimateLatencyPositiveFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(mi, ni, ki uint8) bool {
		m := int(mi%32)*16 + 16
		n := int(ni%32)*16 + 16
		k := int(ki%32)*16 + 16
		task := ir.NewMatMul(m, n, k, ir.FP32, 0)
		g := schedule.NewGenerator(task)
		a := New(device.TitanV)
		lat := a.EstimateLatency(schedule.Lower(task, g.Random(rng)))
		return lat > 0 && !math.IsInf(lat, 0) && !math.IsNaN(lat)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAblationConfigsChangeRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	task := ir.NewMatMul(512, 512, 512, ir.FP32, 0)
	g := schedule.NewGenerator(task)
	g.MaxSharedWords = device.A100.SharedPerBlock
	pop := g.InitPopulation(rng, 64)

	full := New(device.A100)
	noC := &Analyzer{Dev: device.A100, Cfg: Config{DisableComputePenalties: true}}
	var diff int
	for _, s := range pop {
		lw := schedule.Lower(task, s)
		upFull, _ := full.Utilization(full.Penalties(lw))
		upNoC, _ := noC.Utilization(noC.Penalties(lw))
		if upNoC != 1 {
			t.Fatalf("w/o P_c should fix up=1, got %g", upNoC)
		}
		if upFull != 1 {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("compute penalties never active — ablation meaningless")
	}
}

func TestOverflowFactorPunishesOversizedShared(t *testing.T) {
	task := ir.NewMatMul(1024, 1024, 1024, ir.FP32, 0)
	small := &schedule.Schedule{
		SpatialTiles: [][schedule.NumSpatialLevels]int{
			{32, 8, 1, 2, 2}, {32, 8, 1, 2, 2},
		},
		ReduceTiles: [][schedule.NumReduceLevels]int{{64, 4, 4}},
		VectorLen:   1, UseShared: true,
	}
	big := small.Clone()
	// Move the whole reduction into shared residency: huge tiles.
	big.ReduceTiles[0] = [schedule.NumReduceLevels]int{1, 64, 16}
	a := New(device.A100)
	latSmall := a.EstimateLatency(schedule.Lower(task, small))
	latBig := a.EstimateLatency(schedule.Lower(task, big))
	if latBig < latSmall*3 {
		t.Fatalf("shared overflow not punished: small %g big %g", latSmall, latBig)
	}
}

func TestTensorCoreUtilPrefersAlignedTiles(t *testing.T) {
	task := ir.NewMatMul(512, 512, 256, ir.FP16, 0)
	a := New(device.A100)
	aligned := &schedule.Schedule{
		SpatialTiles: [][schedule.NumSpatialLevels]int{
			{8, 4, 1, 16, 1}, {8, 2, 2, 16, 1},
		},
		ReduceTiles: [][schedule.NumReduceLevels]int{{8, 2, 16}},
		VectorLen:   1, UseShared: true, TensorCore: true,
	}
	tiny := &schedule.Schedule{
		SpatialTiles: [][schedule.NumSpatialLevels]int{
			{256, 2, 1, 1, 1}, {128, 4, 1, 1, 1},
		},
		ReduceTiles: [][schedule.NumReduceLevels]int{{128, 2, 1}},
		VectorLen:   1, UseShared: true, TensorCore: true,
	}
	pa := a.Penalties(schedule.Lower(task, aligned))
	pt := a.Penalties(schedule.Lower(task, tiny))
	if pa.PTC <= pt.PTC {
		t.Fatalf("aligned PTC %g should exceed fragment-starved PTC %g", pa.PTC, pt.PTC)
	}
}

func TestScoreOrdersWithLatency(t *testing.T) {
	a := New(device.A100)
	lw := fig3Lowered()
	if a.Score(lw) != -a.EstimateLatency(lw) {
		t.Fatal("Score must be the negated latency estimate")
	}
}

// TestAllocAnalyzerScore pins the draft model itself to zero heap
// allocations per candidate — the measured twin of the //pruner:hotpath
// root on Score (`make bench-smoke` runs every TestAlloc*).
func TestAllocAnalyzerScore(t *testing.T) {
	a := New(device.A100)
	lw := fig3Lowered()
	if avg := testing.AllocsPerRun(100, func() { a.Score(lw) }); avg != 0 {
		t.Errorf("Analyzer.Score: %v allocs per run, want 0", avg)
	}
}
