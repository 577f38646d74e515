package costmodel

import (
	"sync"

	"pruner/internal/ir"
	"pruner/internal/nn"
	"pruner/internal/schedule"
)

// The data-parallel training engine's per-model state. rankFit (model.go)
// shards each epoch's task groups across the session pool; the structures
// here supply what the workers need without sharing mutable state: an
// architecture replica per concurrent group (weights aliased to the live
// model, so replicas always read current parameters) and one gradient
// slot per macro-batch position, reduced serially in group order after
// the fan-out. DESIGN.md §8 describes the full pipeline.

// replica is one worker-side copy of a model's forward program: its
// parameters alias the live weights (nn.AliasParams) but bind private
// gradient slots during backward, so concurrent group gradients never
// touch shared memory. lws holds the group's lowerings, reused group
// after group; the arena a pass builds on — batch rows, tape nodes,
// gradients, backward temporaries — is drawn per step from the pool
// verify's predict chunks share (scratchPool).
type replica struct {
	forward forwardFn
	params  []*nn.Tensor
	lws     []*schedule.Lowered
}

// step is one group's training pass on the replica: lower the records
// through memo, forward, LambdaRank loss and backward, with the parameter
// gradients landing in grads. The arena comes from the shared pool and
// goes back once the loss is read, so with warmed arenas the whole pass
// runs without touching the heap (TestAllocFitStep). It returns the
// group's loss.
//
//pruner:hotpath
func (r *replica) step(b trainBatch, memo *schedule.Memo, grads nn.GradSet) float64 {
	lws := r.lws[:0]
	for _, rec := range b.recs {
		lws = append(lws, memo.Lower(b.task, rec.Sched))
	}
	r.lws = lws
	grads.Zero()
	grads.Bind(r.params)
	a := getScratch()
	loss := nn.LambdaRankLoss(r.forward(&a.Scratch, lws), b.rel)
	nn.Backward(loss)
	l := loss.Data[0]
	putScratch(a)
	return l
}

// trainer caches a model's replicas and gradient slots across Fit calls
// (model construction is not free, and online tuning fits every round).
// Fit calls on one model are serial — the tuner trains between rounds —
// but the replica pool is still a channel because one fit's workers
// check replicas out concurrently.
type trainer struct {
	params []*nn.Tensor // live parameters: the reduction target
	build  func() *replica
	free   chan *replica
	slots  []nn.GradSet
}

func newTrainer(params []*nn.Tensor, build func() *replica) *trainer {
	return &trainer{params: params, build: build, free: make(chan *replica, 64)}
}

// ensureSlots grows the per-macro-batch-position gradient buffers to n.
// Called on the serial path before each fit's fan-out.
func (tr *trainer) ensureSlots(n int) {
	for len(tr.slots) < n {
		tr.slots = append(tr.slots, nn.NewGradSet(tr.params))
	}
}

// slot returns macro-batch position j's gradient buffers.
func (tr *trainer) slot(j int) nn.GradSet { return tr.slots[j] }

// checkout hands the caller a free replica, building one when all are in
// use. Which replica serves which group cannot affect results: replicas
// are pure functions of the shared live weights.
func (tr *trainer) checkout() *replica {
	select {
	case r := <-tr.free:
		return r
	default:
		return tr.build()
	}
}

// checkin returns a replica to the pool (dropping it if the pool is
// somehow full — correctness never depends on reuse).
func (tr *trainer) checkin(r *replica) {
	select {
	case tr.free <- r:
	default:
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
