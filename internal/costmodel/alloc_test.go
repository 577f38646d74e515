package costmodel

import (
	"testing"

	"pruner/internal/ir"
	"pruner/internal/nn"
	"pruner/internal/schedule"
)

// TestAllocFitStep is the trainer's allocation gate, beside the nn
// package's TestAlloc* gates and the measured twin of the hotalloc
// analyzer over the //pruner:hotpath replica.step: once the arena a step
// draws has warmed to a group's shapes (the pool hands back the arena
// the last step parked), one training pass over a batch of lowerings —
// batch assembly and dedup, the tape forward, the LambdaRank loss and the
// backward into the replica's gradients — allocates nothing, for every
// learned model.
func TestAllocFitStep(t *testing.T) {
	b := batchOf(multiTaskRecords(t, 1, 40, 43))
	for _, tc := range []struct {
		name string
		tr   *trainer
	}{
		{"tensetmlp", NewTenSetMLP(1).trainer()},
		{"pacm", NewPaCM(2).trainer()},
		{"tlp", NewTLP(3).trainer()},
	} {
		tc.tr.grow(1)
		rep := tc.tr.reps[0]
		step := func() { rep.step(b) }
		step() // warm the arena and the lowerings' feature caches
		if avg := testing.AllocsPerRun(20, step); avg != 0 {
			t.Errorf("%s: %v allocs per warmed fit step, want 0", tc.name, avg)
		}
	}
}

// TestAllocPredictChunk is the verify stage's allocation gate and the
// measured twin of the hotalloc analyzer over the //pruner:hotpath
// forward methods: under nn.FreezeParams — as predictBatched runs it —
// each learned model's forward over a warmed arena and one engine chunk
// of lowered candidates (batch assembly, dedup and every layer) allocates
// nothing.
func TestAllocPredictChunk(t *testing.T) {
	task := ir.NewMatMul(256, 192, 128, ir.FP32, 1)
	schs := sampleSchedules(task, batchChunk, 37)
	lws := make([]*schedule.Lowered, len(schs))
	for i, s := range schs {
		lws[i] = schedule.Lower(task, s)
	}
	for _, m := range []arch{NewTenSetMLP(4), NewPaCM(5), NewTLP(6)} {
		restore := nn.FreezeParams(m.Params())
		var s nn.Scratch
		chunk := func() {
			s.Reset()
			m.forward(&s, lws)
		}
		chunk() // warm the arena and the lowerings' feature caches
		if avg := testing.AllocsPerRun(20, chunk); avg != 0 {
			t.Errorf("%s: %v allocs per warmed predict chunk, want 0", m.Name(), avg)
		}
		restore()
	}
}
