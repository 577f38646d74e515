package schedule

import (
	"math"
	"sync"
	"sync/atomic"

	"pruner/internal/ir"
)

// Memo caches lowered programs by schedule pointer, so one tuning round
// lowers (and, through Lowered's feature cache, featurizes) each
// candidate exactly once across draft scoring and cost-model
// verification — the stages hand each other the same *Schedule —
// instead of once for each. Structural twins are the search's business
// (evolve's specSet, the seen sets): the memo lowers each pointer it is
// given. It is safe for concurrent use by pool workers; Lower is a pure
// function of (task, schedule), so memoization cannot change any
// computed value. One memo may serve several tasks, but a *Schedule
// belongs to one: lowering it under a second task panics.
//
// A Memo owns its storage: the Lowered programs it stores and the
// feature rows computed for them (Lowered.Rows) are carved from chunks
// the memo holds. The tuner's plan draws one per round with NewMemo and
// releases it on return; a session's online fits share one, released as
// the session ends. Release rewinds the chunks for the next memo drawn,
// and every *Lowered and feature row drawn from a memo is valid only
// until then. A memo never released dies with its last reference.
type Memo struct {
	mu sync.Mutex
	m  map[*Schedule]*Lowered

	slots  chunked[Lowered]
	floats chunked[float64]
	rows   chunked[[]float64]

	parked   bool
	nextFree *Memo // the free-list link while parked
}

// Chunk sizes, in elements. Chunks start small — tests and experiments
// lower a handful of programs — and double up to the cap, so a round of
// thousands of candidates needs a few dozen. A slab of more than
// maxFloatChunk values (or more than maxRowChunk rows) goes to the heap.
const (
	firstSlotChunk  = 8
	maxSlotChunk    = 256
	firstFloatChunk = 1 << 10
	maxFloatChunk   = 1 << 16
	firstRowChunk   = 64
	maxRowChunk     = 1 << 12
)

// memoPool is the process's free list of released memos. A
// mutex-guarded intrusive stack rather than sync.Pool, as costmodel's
// scratchPool is: the GC may empty a sync.Pool between rounds, and a
// parked memo must keep its grown chunks for the next round. It has no
// cap — its length converges to the peak number of memos in use at once,
// at most two per running session (the round memo while plan runs, and
// the fit memo) — and the last memo parked is the first drawn.
var memoPool struct {
	mu   sync.Mutex
	free *Memo
}

// poisonOnRelease, when set, makes Release fill a memo's float chunks
// with NaN before parking it (the used slots are zeroed either way, so
// their Sched and Task are nil), so a read of a feature row or lowering
// after Release shows in every value computed from it. A test hook;
// SetPoisonOnRelease sets it.
var poisonOnRelease atomic.Bool

// SetPoisonOnRelease turns the release poisoning on or off for the
// process and reports the previous setting. It exists for tests that
// check no memo is read after its Release.
func SetPoisonOnRelease(on bool) (was bool) {
	return poisonOnRelease.Swap(on)
}

// NewMemo returns an empty memo: a parked one from the free list when
// there is one, so its chunks are reused, or a fresh one.
func NewMemo() *Memo {
	memoPool.mu.Lock()
	m := memoPool.free
	if m != nil {
		memoPool.free, m.nextFree = m.nextFree, nil
	}
	memoPool.mu.Unlock()
	if m == nil {
		return &Memo{m: make(map[*Schedule]*Lowered)}
	}
	m.parked = false
	return m
}

// Release rewinds the memo and parks it for the next NewMemo. Every
// *Lowered and feature row drawn from it becomes invalid: the slots it
// used are zeroed, so a parked memo keeps no round's schedules or tasks
// reachable. Releasing twice panics, and so does Lower on a released
// memo.
func (m *Memo) Release() {
	m.mu.Lock()
	if m.parked {
		m.mu.Unlock()
		panic("schedule: Memo released twice")
	}
	if poisonOnRelease.Load() {
		m.floats.fill(math.NaN())
	}
	m.slots.rewind(true)
	m.rows.rewind(true)
	m.floats.rewind(false) // Rows zeroes each slab it hands out
	clear(m.m)
	m.parked = true
	m.mu.Unlock()
	memoPool.mu.Lock()
	m.nextFree, memoPool.free = memoPool.free, m
	memoPool.mu.Unlock()
}

// Lower returns the memoized lowering of (t, s), computing and caching it
// on first sight of s. A nil memo degrades to plain Lower, so call sites
// never special-case "no memo". When two workers race on one schedule
// the first stored lowering wins, keeping feature caches shared.
//
//pruner:hotpath
func (m *Memo) Lower(t *ir.Task, s *Schedule) *Lowered {
	if m == nil {
		return Lower(t, s)
	}
	m.mu.Lock()
	if m.parked {
		m.mu.Unlock()
		panic("schedule: Memo used after Release")
	}
	lw := m.m[s]
	if lw == nil {
		lw = &m.slots.take(1, firstSlotChunk, maxSlotChunk)[0]
		m.mu.Unlock()
		lw.memo = m
		lw.lower(t, s)
		m.mu.Lock()
		if prev := m.m[s]; prev != nil {
			lw = prev // the slot stays unused until Release zeroes it
		} else {
			m.m[s] = lw
		}
	}
	m.mu.Unlock()
	// The memo keys by schedule alone, so fail loudly rather than serve
	// one task's lowering for another.
	if lw.Task != t {
		panic("schedule: Memo lowered one schedule for two tasks")
	}
	return lw
}

// slab returns storage for n rows of width w from the memo's chunks, or
// nils when it is larger than a chunk. The values are not zeroed.
func (m *Memo) slab(n, w int) ([]float64, [][]float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n*w > maxFloatChunk || n > maxRowChunk {
		return nil, nil
	}
	return m.floats.take(n*w, firstFloatChunk, maxFloatChunk), m.rows.take(n, firstRowChunk, maxRowChunk)
}

// Len reports the number of cached programs, one per schedule pointer,
// since the memo was drawn — what the training-engine tests use to pin
// "each record is lowered and featurized once per session".
func (m *Memo) Len() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// chunked hands out runs of T carved from chunks that grow
// geometrically, so a carved run never moves; rewind makes every chunk
// available again. The owner serialises access.
type chunked[T any] struct {
	chunks [][]T
	cur    int // the chunk being carved
	off    int // elements of chunks[cur] handed out
}

// take returns n elements (n ≤ max) whose capacity ends at the run. A
// new chunk doubles the last one, from first up to max.
func (c *chunked[T]) take(n, first, max int) []T {
	for {
		if c.cur < len(c.chunks) {
			if ch := c.chunks[c.cur]; c.off+n <= len(ch) {
				c.off += n
				return ch[c.off-n : c.off : c.off]
			}
			c.cur, c.off = c.cur+1, 0
			continue
		}
		size := first
		if k := len(c.chunks); k > 0 {
			size = min(2*len(c.chunks[k-1]), max)
		}
		c.chunks = append(c.chunks, make([]T, size)) //pruner:allow hotalloc — chunk growth, amortised over every round the memo serves
	}
}

// rewind makes every chunk available again, zeroing the elements handed
// out first when zero is set.
func (c *chunked[T]) rewind(zero bool) {
	if zero {
		for i := 0; i < c.cur && i < len(c.chunks); i++ {
			clear(c.chunks[i])
		}
		if c.cur < len(c.chunks) {
			clear(c.chunks[c.cur][:c.off])
		}
	}
	c.cur, c.off = 0, 0
}

// fill sets every element of every chunk to v.
func (c *chunked[T]) fill(v T) {
	for _, ch := range c.chunks {
		for i := range ch {
			ch[i] = v
		}
	}
}
