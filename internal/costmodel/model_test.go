package costmodel

import (
	"math"
	"math/rand"
	"testing"

	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
	"pruner/internal/simulator"
)

func TestRelevances(t *testing.T) {
	rel := Relevances([]float64{2e-3, 1e-3, math.Inf(1), 4e-3})
	if rel[1] != 1 {
		t.Fatalf("best should have relevance 1, got %g", rel[1])
	}
	if rel[0] != 0.5 || rel[3] != 0.25 {
		t.Fatalf("relevances wrong: %v", rel)
	}
	if rel[2] != 0 {
		t.Fatalf("failed measurement should have relevance 0, got %g", rel[2])
	}
	if got := Relevances([]float64{math.Inf(1)}); got[0] != 0 {
		t.Fatal("all-failed group should be all-zero")
	}
}

func TestGroupByTask(t *testing.T) {
	a := ir.NewMatMul(64, 64, 64, ir.FP32, 0)
	b := ir.NewMatMul(128, 64, 64, ir.FP32, 0)
	g := schedule.NewGenerator(a)
	rng := rand.New(rand.NewSource(1))
	recs := []Record{
		{Task: a, Sched: g.Random(rng), Latency: 1},
		{Task: b, Sched: g.Random(rng), Latency: 2},
		{Task: a, Sched: g.Random(rng), Latency: 3},
	}
	lws := []*schedule.Lowered{{}, {}, {}}
	groups := groupByTask(recs, lws)
	if len(groups) != 2 {
		t.Fatalf("%d groups, want 2", len(groups))
	}
	if g := groups[0]; g.task != a || len(g.lws) != 2 || g.lws[0] != lws[0] || g.lws[1] != lws[2] || g.lats[1] != 3 {
		t.Fatal("grouping broken")
	}
}

// trainingRecords builds a measured record set on one task.
func trainingRecords(t *testing.T, task *ir.Task, n int, seed int64) []Record {
	t.Helper()
	g := schedule.NewGenerator(task)
	g.MaxSharedWords = device.T4.SharedPerBlock
	rng := rand.New(rand.NewSource(seed))
	sim := simulator.New(device.T4)
	schs := g.InitPopulation(rng, n)
	var recs []Record
	for i, r := range sim.Measure(task, schs, rng) {
		if r.Valid {
			recs = append(recs, Record{Task: task, Sched: schs[i], Latency: r.Latency})
		}
	}
	return recs
}

// TestModelsLearnToRank: after fitting, each learned model must rank a
// held-out sample of the same task far better than chance.
func TestModelsLearnToRank(t *testing.T) {
	if testing.Short() {
		t.Skip("training")
	}
	task := ir.NewMatMul(256, 512, 256, ir.FP32, 1)
	train := trainingRecords(t, task, 200, 2)
	test := trainingRecords(t, task, 100, 3)

	for _, m := range []Model{NewTenSetMLP(5), NewPaCM(6), NewTLP(7)} {
		rep := m.Fit(train, FitOptions{Epochs: 12, Seed: 1})
		if rep.Samples == 0 || rep.SampleVisits == 0 {
			t.Fatalf("%s: empty fit report", m.Name())
		}
		schs := make([]*schedule.Schedule, len(test))
		lats := make([]float64, len(test))
		for i, r := range test {
			schs[i] = r.Sched
			lats[i] = r.Latency
		}
		scores := m.Predict(task, schs)
		var agree, total float64
		for i := range test {
			for j := i + 1; j < len(test); j++ {
				if lats[i] == lats[j] {
					continue
				}
				total++
				if (lats[i] < lats[j]) == (scores[i] > scores[j]) {
					agree++
				}
			}
		}
		acc := agree / total
		t.Logf("%s pairwise ranking accuracy %.3f", m.Name(), acc)
		if acc < 0.75 {
			t.Errorf("%s ranking accuracy %.3f < 0.75", m.Name(), acc)
		}
	}
}

func TestPredictParallelMatchesSerial(t *testing.T) {
	task := ir.NewMatMul(128, 128, 128, ir.FP32, 0)
	g := schedule.NewGenerator(task)
	rng := rand.New(rand.NewSource(8))
	schs := g.InitPopulation(rng, 40)
	m := NewPaCM(9)
	a := m.Predict(task, schs) // default (machine-wide) pool
	m.SetPool(parallel.New(1))
	b := m.Predict(task, schs) // forced-serial session pool
	// Cross-check both against the batched training-mode forward.
	lws := make([]*schedule.Lowered, len(schs))
	for i, s := range schs {
		lws[i] = schedule.Lower(task, s)
	}
	batched := m.forward(nil, lws)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("parallel vs serial predictions differ at %d: %g vs %g", i, a[i], b[i])
		}
		if math.Abs(a[i]-batched.At(i, 0)) > 1e-12 {
			t.Fatalf("pooled vs batched forward differ at %d: %g vs %g", i, a[i], batched.At(i, 0))
		}
	}
}

func TestRandomModelIsSeeded(t *testing.T) {
	task := ir.NewMatMul(64, 64, 64, ir.FP32, 0)
	g := schedule.NewGenerator(task)
	rng := rand.New(rand.NewSource(11))
	schs := g.InitPopulation(rng, 10)
	a := NewRandom(1).Predict(task, schs)
	b := NewRandom(1).Predict(task, schs)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random model not reproducible for equal seeds")
		}
	}
}

func TestPaCMAblationNamesAndBranches(t *testing.T) {
	if NewPaCM(1).Name() != "pacm" {
		t.Fatal("full PaCM name")
	}
	if NewPaCMAblated(1, true, false).Name() != "pacm-no-tdf" {
		t.Fatal("no-TDF name")
	}
	if NewPaCMAblated(1, false, true).Name() != "pacm-no-sf" {
		t.Fatal("no-SF name")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("branchless PaCM must panic")
		}
	}()
	NewPaCMAblated(1, false, false)
}

// TestAblatedParamCount: ablated PaCMs expose the same parameter count as
// the full model (all branches always allocated); only the head input
// width differs.
func TestAblatedParamCount(t *testing.T) {
	full := NewPaCM(3).Params()
	abl := NewPaCMAblated(4, true, false).Params()
	if len(full) != len(abl) {
		t.Fatalf("param counts differ: %d vs %d", len(full), len(abl))
	}
}
