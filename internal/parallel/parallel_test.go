package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		p := New(workers)
		const n = 1000
		counts := make([]int32, n)
		p.ForEach(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestSingleWorkerPoolIsSerial(t *testing.T) {
	sum := 0
	New(1).ForEach(10, func(i int) { sum += i }) // data race here would fail -race
	if sum != 45 {
		t.Fatalf("serial ForEach sum = %d, want 45", sum)
	}
}

// highWater counts concurrent calls of busy and keeps their peak.
type highWater struct{ cur, peak atomic.Int32 }

func (h *highWater) busy(int) {
	c := h.cur.Add(1)
	for {
		pk := h.peak.Load()
		if c <= pk || h.peak.CompareAndSwap(pk, c) {
			break
		}
	}
	time.Sleep(time.Millisecond)
	h.cur.Add(-1)
}

// peakOutside runs one ForEach on p from each of callers goroutines the
// pool did not start and returns the peak number of concurrent items.
func peakOutside(p *Pool, callers int) int {
	var (
		h  highWater
		wg sync.WaitGroup
	)
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.ForEach(16, h.busy)
		}()
	}
	wg.Wait()
	return int(h.peak.Load())
}

// TestNilPoolIsProcessPool pins what an unset pool means: the one
// all-CPU process pool, so two callers handed nil draw on one budget
// instead of stacking one each.
func TestNilPoolIsProcessPool(t *testing.T) {
	var p *Pool
	if got := p.Workers(); got != runtime.NumCPU() {
		t.Fatalf("nil pool workers = %d, want runtime.NumCPU() = %d", got, runtime.NumCPU())
	}
	if got, bound := peakOutside(nil, 2), runtime.NumCPU()+1; got > bound {
		t.Fatalf("two nil-pool callers peaked at %d concurrent items, want at most %d", got, bound)
	}
}

// TestOutsideCallersBound pins the budget against callers on goroutines
// the pool did not start (the daemon's job runners): each works beside
// the pool's helpers, so k of them on New(W) peak at W + k - 1, not W.
func TestOutsideCallersBound(t *testing.T) {
	const budget, callers = 4, 3
	if got, bound := peakOutside(New(budget), callers), budget+callers-1; got > bound {
		t.Fatalf("%d outside callers on New(%d) peaked at %d, want at most %d", callers, budget, got, bound)
	}
}

func TestForEachSmallerThanWorkers(t *testing.T) {
	p := New(16)
	var visits atomic.Int32
	p.ForEach(3, func(int) { visits.Add(1) })
	if visits.Load() != 3 {
		t.Fatalf("visits = %d, want 3", visits.Load())
	}
	p.ForEach(0, func(int) { t.Fatal("fn called for n=0") })
}

func TestMapPreservesIndexOrder(t *testing.T) {
	p := New(8)
	out := Map(p, 100, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestNewClampsWorkerCount(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Fatal("New(0) must default to at least one worker")
	}
	if got := New(5).Workers(); got != 5 {
		t.Fatalf("New(5).Workers() = %d", got)
	}
}

func TestSplitSeedStreamsDiffer(t *testing.T) {
	seen := map[int64]int64{}
	for stream := int64(0); stream < 1000; stream++ {
		s := SplitSeed(42, stream)
		if prev, dup := seen[s]; dup {
			t.Fatalf("streams %d and %d collide on seed %d", prev, stream, s)
		}
		seen[s] = stream
	}
	if SplitSeed(1, 0) == SplitSeed(2, 0) {
		t.Fatal("different base seeds must derive different streams")
	}
	if SplitSeed(7, 3) != SplitSeed(7, 3) {
		t.Fatal("SplitSeed must be deterministic")
	}
}

// TestPoolGo pins the lend protocol: fn plus every ForEach helper on
// either side of it stay within the pool's budget, join hands the slot
// back so fn's later fan-out can use it, and fn runs inline when there
// is no slot to lend.
func TestPoolGo(t *testing.T) {
	t.Run("budget", func(t *testing.T) {
		const budget = 4
		p := New(budget)
		var h highWater
		join := p.Go(func() {
			for k := 0; k < 8; k++ {
				p.ForEach(8, h.busy)
			}
		})
		p.ForEach(32, h.busy)
		join()
		if got := h.peak.Load(); got > budget {
			t.Fatalf("peak concurrency %d exceeds the pool budget %d", got, budget)
		}
		if len(p.sem) != 0 {
			t.Fatalf("%d helper slots still held after join", len(p.sem))
		}
	})

	t.Run("join lends the slot back", func(t *testing.T) {
		p := New(2)
		deadline := time.Now().Add(10 * time.Second)
		waitFor := func(cond func() bool) bool {
			for !cond() {
				if time.Now().After(deadline) {
					return false
				}
				runtime.Gosched()
			}
			return true
		}
		var arrived atomic.Int32
		var paired atomic.Bool
		join := p.Go(func() {
			if !waitFor(func() bool { return len(p.sem) == 0 }) {
				return // join never handed the slot back
			}
			// Two items that each wait for the other: only a helper
			// running beside fn's own goroutine can finish them.
			paired.Store(true)
			p.ForEach(2, func(int) {
				arrived.Add(1)
				if !waitFor(func() bool { return arrived.Load() == 2 }) {
					paired.Store(false)
				}
			})
		})
		join()
		if !paired.Load() {
			t.Fatal("fn's ForEach got no helper after join handed the slot back")
		}
	})

	inline := func(t *testing.T, p *Pool) {
		t.Helper()
		ran := false
		join := p.Go(func() { ran = true })
		if !ran {
			t.Fatal("fn must have run inline before Go returned")
		}
		join()
	}
	t.Run("workers=1 runs inline", func(t *testing.T) {
		inline(t, New(1))
	})
	t.Run("exhausted budget runs inline", func(t *testing.T) {
		p := New(2)
		hold := make(chan struct{})
		join := p.Go(func() { <-hold }) // takes the only helper slot
		inline(t, p)
		close(hold)
		join()
		if len(p.sem) != 0 {
			t.Fatal("the lent slot was not handed back")
		}
	})
}

// TestPoolPanicReachesCaller pins the panic contract of both entry
// points: a panic in fn on a helper goroutine — a ForEach worker, Go's
// lent slot — comes back as a panic on the caller, when ForEach returns
// or at join, and never kills the process; every helper slot is handed
// back, so the budget is whole afterwards.
func TestPoolPanicReachesCaller(t *testing.T) {
	const budget = 4
	p := New(budget)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("%s: caller recovered %v, want fn's panic", name, r)
			}
		}()
		f()
	}

	t.Run("ForEach", func(t *testing.T) {
		// Every item waits until all budget workers hold one, so helpers
		// are certainly running fn when the items panic.
		var arrived atomic.Int32
		deadline := time.Now().Add(10 * time.Second)
		mustPanic("ForEach", func() {
			p.ForEach(budget, func(int) {
				arrived.Add(1)
				for arrived.Load() < budget && time.Now().Before(deadline) {
					runtime.Gosched()
				}
				panic("boom")
			})
		})
		if arrived.Load() != budget {
			t.Fatalf("%d of %d workers ran an item", arrived.Load(), budget)
		}
	})

	t.Run("Go", func(t *testing.T) {
		join := p.Go(func() { panic("boom") })
		mustPanic("Go join", join)
	})

	if len(p.sem) != 0 {
		t.Fatalf("%d helper slots still held after the panics", len(p.sem))
	}
	var visits atomic.Int32
	p.ForEach(budget, func(int) { visits.Add(1) })
	if visits.Load() != budget {
		t.Fatalf("pool ran %d of %d items after the panics", visits.Load(), budget)
	}
}

// TestNestedForEachSharesBudget pins the anti-multiplication property:
// when ForEach calls nest (suite fan-out over sessions that fan out
// scoring), total concurrency stays within one pool budget rather than
// multiplying per level.
func TestNestedForEachSharesBudget(t *testing.T) {
	const budget = 4
	p := New(budget)
	var h highWater
	p.ForEach(8, func(int) { p.ForEach(8, h.busy) })
	if got := h.peak.Load(); got > budget {
		t.Fatalf("peak concurrency %d exceeds the pool budget %d", got, budget)
	}
}
