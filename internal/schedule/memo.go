package schedule

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

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
// the memo holds, and so are the schedules of a generator bound to it
// (Generator.WithMemo): each one's header and tile rows. Each caller
// draws one with NewMemo and releases it on return: the tuner's plan per
// round, the cost model's fit per call and measure.Sim per batch it
// measures. Release rewinds the chunks for the next memo drawn, and
// every *Lowered, feature row and carved *Schedule drawn from a memo is
// valid only until then; a carved schedule that must outlive the memo
// (the batch plan dispatches) is cloned to the heap first. A memo never
// released dies with its last reference.
type Memo struct {
	mu sync.Mutex
	m  map[*Schedule]*Lowered

	slots  chunked[Lowered]
	floats chunked[float64]
	rows   chunked[[]float64]
	// scheds, spatial and reduce hold the schedules carve makes: their
	// headers and tile rows.
	scheds  chunked[Schedule]
	spatial chunked[[NumSpatialLevels]int]
	reduce  chunked[[NumReduceLevels]int]

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
	firstSchedChunk = 16
	maxSchedChunk   = 1 << 10
	firstTileChunk  = 64
	maxTileChunk    = 1 << 12
)

// memoPool is the process's free list of released memos. A
// mutex-guarded intrusive stack rather than sync.Pool, as costmodel's
// scratchPool is: the GC may empty a sync.Pool between rounds, and a
// parked memo must keep its grown chunks for the next round. It has no
// cap — its length converges to the peak number of memos in use at once:
// per running session the round memo while plan runs and the memo of the
// fit in flight, and one per batch an in-process measurer is measuring —
// and the last memo parked is the first drawn. A parked memo keeps every
// chunk it grew, a round memo's schedule chunks included, whichever role
// draws it next; ParkedBytes reports the total.
var memoPool struct {
	mu   sync.Mutex
	free *Memo
}

// poisonOnRelease, when set, makes Release fill a memo's float chunks
// with NaN and zero the tile rows it carved before parking it (the used
// slots and schedule headers are zeroed either way, so their Sched, Task
// and tiles are nil), so a read of a feature row, lowering or carved
// schedule after Release shows in every value computed from it. A test
// hook; SetPoisonOnRelease sets it.
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
// *Lowered, feature row and carved *Schedule drawn from it becomes
// invalid: the slots and schedule headers it used are zeroed, cached
// fingerprints included, so a parked memo keeps no round's schedules,
// tasks or strings reachable. Releasing twice panics, and so do Lower
// and carving on a released memo.
func (m *Memo) Release() {
	m.mu.Lock()
	if m.parked {
		m.mu.Unlock()
		panic("schedule: Memo released twice")
	}
	poison := poisonOnRelease.Load()
	if poison {
		m.floats.fill(math.NaN())
	}
	m.slots.rewind(true)
	m.rows.rewind(true)
	m.floats.rewind(false) // Rows zeroes each slab it hands out
	m.scheds.rewind(true)
	m.spatial.rewind(poison) // carve overwrites each row it hands out
	m.reduce.rewind(poison)
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

// carve returns a copy of s whose header and tile rows are carved from
// the memo's chunks: the schedule a bound generator returns. Like
// Clone's, the copy's fingerprint cache starts empty.
func (m *Memo) carve(s *Schedule) *Schedule {
	m.mu.Lock()
	if m.parked {
		m.mu.Unlock()
		panic("schedule: Memo used after Release")
	}
	c := &m.scheds.take(1, firstSchedChunk, maxSchedChunk)[0]
	c.SpatialTiles = m.spatial.take(len(s.SpatialTiles), firstTileChunk, maxTileChunk)
	c.ReduceTiles = m.reduce.take(len(s.ReduceTiles), firstTileChunk, maxTileChunk)
	m.mu.Unlock()
	copy(c.SpatialTiles, s.SpatialTiles)
	copy(c.ReduceTiles, s.ReduceTiles)
	c.UnrollStep, c.VectorLen = s.UnrollStep, s.VectorLen
	c.UseShared, c.TensorCore = s.UseShared, s.TensorCore
	return c
}

// ParkedBytes reports the storage the parked memos hold: the capacity of
// their chunks, in bytes. It reads the free list under its lock, so it
// sees no memo half parked.
func ParkedBytes() int64 {
	memoPool.mu.Lock()
	defer memoPool.mu.Unlock()
	var n int64
	for m := memoPool.free; m != nil; m = m.nextFree {
		n += m.slots.bytes() + m.floats.bytes() + m.rows.bytes() +
			m.scheds.bytes() + m.spatial.bytes() + m.reduce.bytes()
	}
	return n
}

// Len reports the number of cached programs, one per schedule pointer,
// since the memo was drawn.
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

// take returns n elements whose capacity ends at the run. A new chunk
// doubles the last one, from first up to limit (or n, when larger).
func (c *chunked[T]) take(n, first, limit int) []T {
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
			size = min(2*len(c.chunks[k-1]), limit)
		}
		size = max(size, n)
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

// bytes reports the capacity of the chunks, in bytes.
func (c *chunked[T]) bytes() int64 {
	var zero T
	n := 0
	for _, ch := range c.chunks {
		n += cap(ch)
	}
	return int64(n) * int64(unsafe.Sizeof(zero))
}

// fill sets every element of every chunk to v.
func (c *chunked[T]) fill(v T) {
	for _, ch := range c.chunks {
		for i := range ch {
			ch[i] = v
		}
	}
}
