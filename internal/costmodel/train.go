package costmodel

import "pruner/internal/nn"

// The data-parallel training engine's per-model state. rankFit (model.go)
// shards each epoch's task groups across the session pool; the trainer
// here supplies what the workers need without sharing mutable state: one
// architecture replica per macro-batch position (weights aliased to the
// live model, so replicas always read current parameters; gradients in
// the replica's own buffers), reduced in group order after the fan-out by
// the optimiser's step (nn.Adam.StepFrom), which also zeroes them.
// DESIGN.md §6 describes the full pipeline.

// replica is one macro-batch position's copy of a model's forward
// program: its parameters alias the live weights (nn.AliasParams) but
// keep their own Grad buffers, so concurrent group gradients never touch
// shared memory. The arena a pass builds on — batch rows, tape nodes,
// gradients, backward temporaries — is drawn per step from the pool
// verify's predict chunks share (scratchPool).
type replica struct {
	forward forwardFn
	params  []*nn.Tensor
}

// step is one group's training pass on the replica: forward over the
// batch's lowerings, LambdaRank loss and backward, leaving the group's
// parameter gradients in r.params' Grad. The gradients start at zero: a
// new replica's are, and the optimiser step that reads them zeroes them.
// The arena comes from the shared pool and goes back once the loss is
// read, so with warmed arenas the whole pass runs without touching the
// heap (TestAllocFitStep). It returns the group's loss.
//
//pruner:hotpath
func (r *replica) step(b trainBatch) float64 {
	a := getScratch()
	loss := nn.LambdaRankLoss(r.forward(&a.Scratch, b.lws), b.rel)
	nn.Backward(loss)
	l := loss.Data[0]
	putScratch(a)
	return l
}

// trainer keeps a model's replicas across Fit calls (model construction is
// not free, and online tuning fits every round): reps[j] computes group j
// of every macro-batch. Fit calls on one model are serial — the tuner
// trains between rounds — and within one fit each worker touches only its
// own position's replica.
type trainer struct {
	build     func() *replica
	reps      []*replica
	repParams [][]*nn.Tensor // repParams[j] is reps[j].params: the optimiser step's sources
}

// grow builds replicas up to n positions; a fit builds only the positions
// it uses. Called on the serial path before each macro-batch's fan-out.
func (tr *trainer) grow(n int) {
	for len(tr.reps) < n {
		r := tr.build()
		tr.reps = append(tr.reps, r)
		tr.repParams = append(tr.repParams, r.params)
	}
}
