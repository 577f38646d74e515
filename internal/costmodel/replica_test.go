package costmodel

import (
	"math"
	"math/rand"
	"testing"

	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/nn"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
	"pruner/internal/simulator"
)

// distinctTaskRecords builds measured records over n tasks of distinct
// shapes (so n task groups, unlike multiTaskRecords, whose shapes repeat
// after 8), perTask schedules each.
func distinctTaskRecords(t *testing.T, n, perTask int, seed int64) []Record {
	t.Helper()
	var recs []Record
	for i := 0; i < n; i++ {
		task := ir.NewMatMul(128+64*i, 256, 64, ir.FP32, 0)
		g := schedule.NewGenerator(task)
		g.MaxSharedWords = device.T4.SharedPerBlock
		rng := rand.New(rand.NewSource(seed + int64(i)))
		schs := g.InitPopulation(rng, perTask)
		valid := 0
		for j, r := range simulator.New(device.T4).Measure(task, schs, rng) {
			if r.Valid {
				recs = append(recs, Record{Task: task, Sched: schs[j], Latency: r.Latency})
				valid++
			}
		}
		if valid < 2 {
			t.Fatalf("task %d: %d valid records, need 2 to train", i, valid)
		}
	}
	return recs
}

// TestTrainerReplicaPerPosition pins the trainer's replica list: a fit
// builds one replica per macro-batch position it uses (at most
// macroBatch), a later fit reuses them, each replica reads the live
// weights through its own gradient buffers, and the optimiser step that
// reads those buffers zeroes them for the next backward.
func TestTrainerReplicaPerPosition(t *testing.T) {
	opt := FitOptions{Epochs: 1, Seed: 1}
	for _, tc := range []struct{ groups, reps int }{{3, 3}, {macroBatch + 1, macroBatch}} {
		recs := distinctTaskRecords(t, tc.groups, 6, 31)
		m := NewTenSetMLP(19)
		m.SetPool(parallel.New(2))
		m.Fit(recs, opt)
		tr := m.tr
		if len(tr.reps) != tc.reps {
			t.Fatalf("fit over %d groups built %d replicas, want %d", tc.groups, len(tr.reps), tc.reps)
		}
		first := append([]*replica(nil), tr.reps...)
		m.Fit(recs, opt)
		if len(tr.reps) != len(first) {
			t.Fatalf("second fit grew the replicas from %d to %d", len(first), len(tr.reps))
		}
		for j, r := range tr.reps {
			if r != first[j] {
				t.Fatalf("second fit rebuilt replica %d", j)
			}
		}

		// Every Grad buffer — the live model's and each replica's — is
		// its own storage; every replica's Data is the live model's.
		live := m.Params()
		grads := map[*float64]bool{}
		for _, p := range live {
			grads[&p.Grad[0]] = true
		}
		for j, r := range tr.reps {
			for i, p := range r.params {
				if &p.Data[0] != &live[i].Data[0] {
					t.Fatalf("replica %d param %d does not alias the live weights", j, i)
				}
				if grads[&p.Grad[0]] {
					t.Fatalf("replica %d param %d shares another's Grad", j, i)
				}
				grads[&p.Grad[0]] = true
			}
		}
	}

	// Two steps on one batch leave the same gradient bits: the optimiser
	// step between them reads the replica's gradients and zeroes them. It
	// steps another model's weights, so the replica's stay put.
	b := batchOf(distinctTaskRecords(t, 1, 12, 37))
	tr := NewTenSetMLP(23).trainer()
	tr.grow(1)
	rep := tr.reps[0]
	other := nn.NewAdam(NewTenSetMLP(23).Params(), 7e-4)
	snapshot := func() []uint64 {
		var bits []uint64
		for _, p := range rep.params {
			for _, g := range p.Grad {
				bits = append(bits, math.Float64bits(g))
			}
		}
		return bits
	}
	rep.step(b)
	once := snapshot()
	other.StepFrom(parallel.New(2), tr.repParams, 1)
	for i, g := range snapshot() {
		if g != 0 {
			t.Fatalf("gradient element %d is %x after the optimiser step, want +0", i, g)
		}
	}
	rep.step(b)
	twice := snapshot()
	nonzero := false
	for i := range once {
		if once[i] != twice[i] {
			t.Fatalf("gradient element %d differs after a second step: %x vs %x", i, once[i], twice[i])
		}
		nonzero = nonzero || once[i] != 0
	}
	if !nonzero {
		t.Fatal("the step left every gradient at zero")
	}
}
