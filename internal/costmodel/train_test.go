package costmodel

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"

	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/nn"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
	"pruner/internal/simulator"
)

// multiTaskRecords builds a measured record set over n distinct tasks
// (perTask records each), the shape the parallel trainer shards.
func multiTaskRecords(t testing.TB, n, perTask int, seed int64) []Record {
	t.Helper()
	sizes := []int{128, 192, 256, 320, 384, 448, 512, 640}
	var recs []Record
	for i := 0; i < n; i++ {
		task := ir.NewMatMul(sizes[i%len(sizes)], 256, 64*(1+i%4), ir.FP32, i%2)
		g := schedule.NewGenerator(task)
		g.MaxSharedWords = device.T4.SharedPerBlock
		rng := rand.New(rand.NewSource(seed + int64(i)))
		sim := simulator.New(device.T4)
		schs := g.InitPopulation(rng, perTask)
		for j, r := range sim.Measure(task, schs, rng) {
			if r.Valid {
				recs = append(recs, Record{Task: task, Sched: schs[j], Latency: r.Latency})
			}
		}
	}
	if len(recs) < n*perTask/2 {
		t.Fatalf("too few valid records: %d", len(recs))
	}
	return recs
}

// paramsEqual asserts two models' parameters are bitwise identical.
func paramsEqual(t *testing.T, label string, a, b Model) {
	t.Helper()
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatalf("%s: param count %d vs %d", label, len(pa), len(pb))
	}
	for i := range pa {
		for j := range pa[i].Data {
			if pa[i].Data[j] != pb[i].Data[j] {
				t.Fatalf("%s: param %d[%d] differs: %g vs %g",
					label, i, j, pa[i].Data[j], pb[i].Data[j])
			}
		}
	}
}

// TestFitDeterministicAcrossWorkers is the training engine's contract
// (the same bar TestPredictBatchedMatchesReference holds for inference):
// fitted parameters are bitwise identical whether the fit runs serially
// or sharded over 8 workers, because group order, subsampling draws and
// the gradient reduction all live on the serial path.
func TestFitDeterministicAcrossWorkers(t *testing.T) {
	recs := multiTaskRecords(t, 6, 24, 1)
	builders := map[string]func() Model{
		"tensetmlp": func() Model { return NewTenSetMLP(5) },
		"pacm":      func() Model { return NewPaCM(6) },
		"tlp":       func() Model { return NewTLP(7) },
	}
	for name, build := range builders {
		serial, wide := build(), build()
		serial.(PoolUser).SetPool(parallel.New(1))
		wide.(PoolUser).SetPool(parallel.New(8))
		repS := serial.Fit(recs, FitOptions{Epochs: 3, Seed: 2})
		repW := wide.Fit(recs, FitOptions{Epochs: 3, Seed: 2})
		if repS != repW {
			t.Fatalf("%s: fit reports differ: %+v vs %+v", name, repS, repW)
		}
		paramsEqual(t, name+" P=1 vs P=8", serial, wide)
	}
}

// TestFitMacroBatchOneMatchesReference pins the engine to the pre-engine
// serial loop: with macro-batches of one group the averaged-gradient step
// degenerates to one step per group, and the parallel trainer must
// reproduce the reference's parameters bitwise even on a wide pool.
func TestFitMacroBatchOneMatchesReference(t *testing.T) {
	recs := multiTaskRecords(t, 4, 20, 3)
	opt := FitOptions{Epochs: 3, Seed: 4}

	engine := NewPaCM(9)
	repE := rankFit(recs, opt, engine.adam, parallel.New(8), engine.seed, engine.trainer(), 1)

	ref := NewPaCM(9)
	repR := rankFitReference(recs, opt, ref.adam, groupStep(ref.forward), ref.seed)

	if repE != repR {
		t.Fatalf("fit reports differ: engine %+v vs reference %+v", repE, repR)
	}
	paramsEqual(t, "engine(macro-batch 1) vs reference", engine, ref)
}

// TestFitParamsPinned pins whole fits bit for bit: each learned model's
// parameters after a short multi-task fit hash to the digest captured
// before the training tape moved onto the replicas' arenas. A session
// fingerprint only sees which schedules a model ranks first, so it can
// miss a last-bit change in a gradient; this cannot.
func TestFitParamsPinned(t *testing.T) {
	recs := multiTaskRecords(t, 3, 24, 51)
	for _, tc := range []struct {
		name   string
		m      Model
		golden string
	}{
		{"tensetmlp", NewTenSetMLP(21), "d6a892c558489bbf"},
		{"pacm", NewPaCM(22), "a289a8c244564b0a"},
		{"tlp", NewTLP(23), "4768461c3f451c29"},
	} {
		tc.m.(PoolUser).SetPool(parallel.New(2))
		tc.m.Fit(recs, FitOptions{Epochs: 2, Seed: 3})
		h := fnv.New64a()
		for _, p := range tc.m.Params() {
			for _, v := range p.Data {
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
			}
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.golden {
			t.Errorf("%s: fitted-parameter digest %s, pinned %s", tc.name, got, tc.golden)
		}
	}
}

// TestFitSubsamplesLargeGroups pins the per-group bound: each epoch, a
// task group larger than maxGroup trains on a maxGroup-sample subsample.
func TestFitSubsamplesLargeGroups(t *testing.T) {
	recs := multiTaskRecords(t, 1, 200, 7)
	if len(recs) <= maxGroup {
		t.Fatalf("need a group larger than the bound, got %d", len(recs))
	}
	if rep := NewTenSetMLP(13).Fit(recs, FitOptions{Epochs: 1, Seed: 8}); rep.SampleVisits != maxGroup {
		t.Fatalf("fit should subsample to %d, visited %d", maxGroup, rep.SampleVisits)
	}
}

// TestFitReportBatches pins the "trained to zero" vs "never trained"
// distinction: degenerate record sets report zero batches and a NaN
// loss instead of a fake 0.
func TestFitReportBatches(t *testing.T) {
	m := NewTenSetMLP(15)

	rep := m.Fit(nil, FitOptions{Epochs: 2, Seed: 1})
	if rep.Batches != 0 || !math.IsNaN(rep.Loss) {
		t.Fatalf("empty fit: want Batches=0 Loss=NaN, got %+v", rep)
	}

	// Every group below the ranking minimum (one record each): training
	// never runs, and the report must say so.
	recs := multiTaskRecords(t, 3, 6, 9)
	seen := map[string]bool{}
	var singles []Record
	for _, r := range recs {
		if !seen[r.Task.ID] {
			seen[r.Task.ID] = true
			singles = append(singles, r)
		}
	}
	rep = m.Fit(singles, FitOptions{Epochs: 2, Seed: 1})
	if rep.Batches != 0 || !math.IsNaN(rep.Loss) || rep.SampleVisits != 0 {
		t.Fatalf("degenerate fit: want Batches=0 Loss=NaN Visits=0, got %+v", rep)
	}
	if rep.Samples != len(singles) {
		t.Fatalf("degenerate fit should still count distinct samples: %+v", rep)
	}

	// A real fit reports its batch count (epochs x trainable groups).
	rep = m.Fit(recs, FitOptions{Epochs: 2, Seed: 1})
	if rep.Batches != 2*3 {
		t.Fatalf("want 6 batches (2 epochs x 3 groups), got %+v", rep)
	}
	if math.IsNaN(rep.Loss) {
		t.Fatalf("trained fit must report a finite loss: %+v", rep)
	}
}

// TestFitLowersEachRecordOnce pins the fit's lowering contract: one fit
// over 3 task groups and 4 epochs hands its replicas exactly one
// *Lowered per distinct record, the same one in every epoch, and so does
// a second fit on the same model.
func TestFitLowersEachRecordOnce(t *testing.T) {
	recs := multiTaskRecords(t, 3, 16, 11)
	distinct := map[*schedule.Schedule]bool{}
	for _, r := range recs {
		distinct[r.Sched] = true
	}

	m := NewPaCM(17)
	m.SetPool(parallel.New(4))
	tr := m.trainer()
	tr.grow(macroBatch)
	var mu sync.Mutex
	var seen map[*schedule.Schedule]*schedule.Lowered
	for _, rep := range tr.reps {
		forward := rep.forward
		rep.forward = func(s *nn.Scratch, lws []*schedule.Lowered) *nn.Tensor {
			mu.Lock()
			for _, lw := range lws {
				if prev := seen[lw.Sched]; prev != nil && prev != lw {
					t.Errorf("a record's schedule reached the replicas as two lowerings")
				}
				seen[lw.Sched] = lw
			}
			mu.Unlock()
			return forward(s, lws)
		}
	}
	for call := 1; call <= 2; call++ {
		seen = map[*schedule.Schedule]*schedule.Lowered{}
		m.Fit(recs, FitOptions{Epochs: 4, Seed: 12})
		if len(seen) != len(distinct) {
			t.Fatalf("fit %d: replicas saw %d records' lowerings, want %d", call, len(seen), len(distinct))
		}
		for s := range seen {
			if !distinct[s] {
				t.Fatalf("fit %d: a replica saw a lowering of no record", call)
			}
		}
	}
}

// TestFitReleasedMemoPoisoned checks that nothing reads a fit's memo
// after the fit releases it: fits whose released memos are filled with
// NaN (and then drawn again by the next fit) leave the same parameter
// bits as fits without poisoning.
func TestFitReleasedMemoPoisoned(t *testing.T) {
	recs := multiTaskRecords(t, 3, 16, 13)
	fits := func() Model {
		m := NewPaCM(19)
		m.SetPool(parallel.New(4))
		m.Fit(recs, FitOptions{Epochs: 3, Seed: 5})
		m.Fit(recs[:20], FitOptions{Epochs: 3, Seed: 6})
		return m
	}
	clean := fits()
	defer schedule.SetPoisonOnRelease(schedule.SetPoisonOnRelease(true))
	paramsEqual(t, "poisoned vs clean", fits(), clean)
}
