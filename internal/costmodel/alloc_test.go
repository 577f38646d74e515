package costmodel

import "testing"

// TestAllocFitStep is the trainer's allocation gate, beside the nn
// package's TestAlloc* kernel gates and the measured twin of the hotalloc
// analyzer over the //pruner:hotpath replica.step: once a replica's arena
// has warmed to a group's shapes, one training pass — lowering through
// the session cache, batch assembly and dedup, the tape forward, the
// LambdaRank loss and the backward into the gradient slot — allocates
// nothing, for every learned model.
func TestAllocFitStep(t *testing.T) {
	recs := multiTaskRecords(t, 1, 40, 43)
	lats := make([]float64, len(recs))
	for i, r := range recs {
		lats[i] = r.Latency
	}
	b := trainBatch{task: recs[0].Task, recs: recs, rel: Relevances(lats)}
	memo := NewFitCache().memo(b.task)
	for _, tc := range []struct {
		name string
		tr   *trainer
	}{
		{"tensetmlp", NewTenSetMLP(1).trainer()},
		{"pacm", NewPaCM(2).trainer()},
		{"tlp", NewTLP(3).trainer()},
	} {
		tc.tr.ensureSlots(1)
		rep := tc.tr.checkout()
		step := func() { rep.step(b, memo, tc.tr.slot(0)) }
		step() // warm the arena and the lowering cache
		if avg := testing.AllocsPerRun(20, step); avg != 0 {
			t.Errorf("%s: %v allocs per warmed fit step, want 0", tc.name, avg)
		}
	}
}
