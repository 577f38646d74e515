package costmodel

import (
	"sync"

	"pruner/internal/ir"
	"pruner/internal/nn"
	"pruner/internal/schedule"
)

// The data-parallel training engine's per-model state. rankFit (model.go)
// shards each epoch's task groups across the session pool; the trainer
// here supplies what the workers need without sharing mutable state: one
// architecture replica per macro-batch position (weights aliased to the
// live model, so replicas always read current parameters; gradients in
// the replica's own buffers), reduced serially in group order after the
// fan-out. DESIGN.md §6 describes the full pipeline.

// replica is one macro-batch position's copy of a model's forward
// program: its parameters alias the live weights (nn.AliasParams) but
// keep their own Grad buffers, so concurrent group gradients never touch
// shared memory. lws holds the group's lowerings, reused group after
// group; the arena a pass builds on — batch rows, tape nodes, gradients,
// backward temporaries — is drawn per step from the pool verify's predict
// chunks share (scratchPool).
type replica struct {
	forward forwardFn
	params  []*nn.Tensor
	lws     []*schedule.Lowered
}

// step is one group's training pass on the replica: lower the records
// through memo, zero the replica's gradients, forward, LambdaRank loss and
// backward, leaving the group's parameter gradients in r.params' Grad. The
// arena comes from the shared pool and goes back once the loss is read, so
// with warmed arenas the whole pass runs without touching the heap
// (TestAllocFitStep). It returns the group's loss.
//
//pruner:hotpath
func (r *replica) step(b trainBatch, memo *schedule.Memo) float64 {
	lws := r.lws[:0]
	for _, rec := range b.recs {
		lws = append(lws, memo.Lower(b.task, rec.Sched))
	}
	r.lws = lws
	for _, p := range r.params {
		clear(p.Grad)
	}
	a := getScratch()
	loss := nn.LambdaRankLoss(r.forward(&a.Scratch, lws), b.rel)
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
	params []*nn.Tensor // live parameters: the reduction target
	build  func() *replica
	reps   []*replica
}

// grow builds replicas up to n positions; a fit builds only the positions
// it uses. Called on the serial path before each macro-batch's fan-out.
func (tr *trainer) grow(n int) {
	for len(tr.reps) < n {
		tr.reps = append(tr.reps, tr.build())
	}
}

// FitCache memoizes the lowering — and, through Lowered's feature cache,
// the featurization — of training records across epochs and Fit calls.
// The tuner creates one per session and threads it through
// FitOptions.Cache: measurement records are append-only and lowering is
// a pure function, so caching cannot change a fitted value, only how
// often the feature pipeline runs. Safe for concurrent use by the
// trainer's workers. A nil *FitCache degrades to uncached lowering, so
// call sites never special-case "no cache".
type FitCache struct {
	mu    sync.Mutex
	memos map[*ir.Task]*schedule.Memo
}

// NewFitCache returns an empty session-scoped training cache.
func NewFitCache() *FitCache {
	return &FitCache{memos: make(map[*ir.Task]*schedule.Memo)}
}

// memo returns the task's lowering memo, creating it on first sight.
// Memos key by task *pointer*, matching schedule.Memo's own identity
// check: two task instances sharing an ID (records merged from separate
// network builds) get separate memos instead of tripping Memo's
// shared-across-tasks panic. The tuner rebinds records to its session
// task instances, so within a session each task still gets one memo.
// A nil cache returns a nil memo, which lowers without caching.
func (c *FitCache) memo(t *ir.Task) *schedule.Memo {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.memos[t]
	if m == nil {
		m = schedule.NewMemo()
		c.memos[t] = m
	}
	return m
}

// Len reports the number of cached lowered programs across all tasks.
func (c *FitCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, m := range c.memos {
		n += m.Len()
	}
	return n
}
