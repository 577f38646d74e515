// Package parallel is the worker-pool execution runtime shared by the
// tuning session's hot paths: draft scoring in search, batched cost-model
// inference, simulated measurement, and the experiment/CLI fan-out over
// independent tasks and networks.
//
// The pool only ever runs pure, index-addressed work (fn(i) writes out[i])
// or, through Go, one task whose inputs the caller fixed before starting
// it and whose outputs it reads only after the join; all random draws
// stay on the serial caller path. That split is what makes a session's
// Result bitwise identical at any worker count: parallelism changes who
// computes a value, never which value is computed.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds the concurrency of one tuning session, experiment suite or
// CLI invocation. The bound is a real budget, not a per-call width: the
// pool holds a shared semaphore, so when ForEach calls nest (a suite
// fanning sessions out while each session fans its candidate scoring) the
// helper goroutines of every level draw on the same allowance and total
// concurrency stays at Workers instead of multiplying layer by layer.
// A nil *Pool is the process pool: one all-CPU budget shared by every
// caller that was not handed a pool, so call sites never need to
// special-case "no pool" and unset pools in one process never stack.
type Pool struct {
	workers int
	// sem holds the shared helper-goroutine budget: Workers-1 slots,
	// because every ForEach caller works unconditionally and only extra
	// goroutines need a slot. Acquisition never blocks (a full budget
	// just means the caller proceeds alone), so nesting cannot deadlock.
	sem chan struct{}
}

// New builds a pool with the given worker budget; workers <= 0 selects
// runtime.NumCPU().
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Pool{workers: workers, sem: make(chan struct{}, workers-1)}
}

// process is the pool a nil *Pool stands for.
var process = New(0)

// orProcess resolves a nil pool to the process pool.
func (p *Pool) orProcess() *Pool {
	if p == nil {
		return process
	}
	return p
}

// Workers reports the pool's concurrency budget.
func (p *Pool) Workers() int { return p.orProcess().workers }

// ForEach runs fn(i) for every i in [0, n), fanned across the pool's
// budget with dynamic load balancing (an atomic index, so uneven items —
// e.g. schedules of very different sizes — do not leave workers idle).
// It blocks until all items complete. fn must be safe to call concurrently
// and should only write state owned by its index. A single-worker pool,
// or an exhausted budget, runs inline on the caller's goroutine.
// A panic in fn is the caller's: the first one is recovered on whichever
// goroutine raised it, every helper still finishes and returns its slot,
// and the panic is re-raised on the caller once they have.
func (p *Pool) ForEach(n int, fn func(i int)) {
	p = p.orProcess()
	if p.workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// Only what the helpers share is captured: a captured p would move to
	// the heap on every call, the inline ones above included.
	sem := p.sem
	var (
		next  atomic.Int64
		fault panicSlot
	)
	run := func() {
		defer fault.catch()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	helpers := p.workers - 1
	if helpers > n-1 {
		helpers = n - 1
	}
	var wg sync.WaitGroup
spawn:
	for k := 0; k < helpers; k++ {
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() {
					<-sem
					wg.Done()
				}()
				run()
			}()
		default:
			break spawn // budget in use elsewhere; the caller still works
		}
	}
	run() // the caller is always a worker
	wg.Wait()
	fault.reraise()
}

// Go runs fn beside the caller on one of the pool's helper slots and
// returns join, which blocks until fn has returned. The slot is lent, not
// held: join hands it back before it blocks, because the caller stops
// working there, so ForEach calls fn makes after the join starts can fan
// out over the caller's share of the budget too; if fn finishes first it
// hands the slot back itself. With no free slot — a single-worker pool
// or a budget in use elsewhere — fn runs inline before Go returns and
// join is a no-op, so a serial session stays serial and a shared pool
// stays within its budget. Everything fn writes is visible to the
// caller once join returns, and so is a panic in fn: re-raised at join,
// after the slot went back.
func (p *Pool) Go(fn func()) (join func()) {
	p = p.orProcess()
	if p.workers <= 1 {
		fn()
		return func() {}
	}
	select {
	case p.sem <- struct{}{}:
	default:
		fn()
		return func() {}
	}
	var (
		once  sync.Once
		fault panicSlot
	)
	release := func() { once.Do(func() { <-p.sem }) }
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer release()
		defer fault.catch()
		fn()
	}()
	return func() {
		release()
		<-done
		fault.reraise()
	}
}

// panicSlot keeps the first panic any of a call's goroutines recovered,
// for the caller to re-raise once they are all done.
type panicSlot struct {
	once sync.Once
	val  any
}

// catch, deferred directly, stops a panic on its goroutine and keeps
// it if it is the first.
func (f *panicSlot) catch() {
	if r := recover(); r != nil {
		f.once.Do(func() { f.val = r })
	}
}

// reraise panics with the kept value, if any.
func (f *panicSlot) reraise() {
	if f.val != nil {
		panic(f.val)
	}
}

// Map runs fn over [0, n) on the pool and collects the results in index
// order.
func Map[T any](p *Pool, n int, fn func(i int) T) []T {
	out := make([]T, n)
	p.ForEach(n, func(i int) { out[i] = fn(i) })
	return out
}

// SplitSeed derives an independent deterministic seed for a numbered
// stream (per-task, per-worker, per-session). It is a splitmix64
// finalizer over the golden-ratio sequence, so neighbouring stream
// indices yield statistically unrelated generators — unlike the raw
// seed^index trick, which correlates low bits across streams.
func SplitSeed(seed, stream int64) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(stream+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
