package costmodel

import (
	"sync"

	"pruner/internal/features"
	"pruner/internal/ir"
	"pruner/internal/nn"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
)

// The batched engine behind every learned model's Predict: candidates are
// lowered once (through the round's memo when the tuner injected one), and
// the model's one forward — the training forward, recording no tape under
// nn.FreezeParams — runs per fixed-size chunk on an arena, so their
// feature rows concatenate into a few large fused GEMMs and per-candidate
// scores fall out of segmented reductions. The engine is bitwise
// identical to a per-candidate forward — pinned by
// TestPredictBatchedMatchesReference — so it decides verify-stage
// wall-clock only, never a score.

// MemoUser is implemented by models whose Predict can reuse a
// caller-provided lowering memo. The tuner's plan sets its round memo
// for the round's draft and verify, so verification shares lowered
// programs (and their cached features) with draft scoring, and on
// return unsets it and then releases it: the memo, and every *Lowered
// and feature row drawn from it, must not be used past that point.
type MemoUser interface {
	SetMemo(m *schedule.Memo)
}

// batchChunk is the number of candidates fused into one engine dispatch.
// Chunks are the unit fanned across the session pool; a fixed size keeps
// the grouping — and therefore every intermediate tensor — independent of
// the worker count. Each candidate's score depends only on its own rows,
// so chunking cannot change results; 64 candidates amortize per-op
// overhead while keeping chunk working sets cache-sized.
const batchChunk = 64

// predictBatched is the engine driver: it freezes the model's parameters
// for the duration, then fans fixed-size candidate chunks across the
// pool, each run through forward on an arena drawn for that chunk alone.
// A frozen forward only reads the weights and records no tape, so
// concurrent chunks are safe.
func predictBatched(pool *parallel.Pool, m arch, memo *schedule.Memo, t *ir.Task, schs []*schedule.Schedule) []float64 {
	if len(schs) == 0 {
		return nil
	}
	defer nn.FreezeParams(m.Params())()
	out := make([]float64, len(schs))
	chunks := (len(schs) + batchChunk - 1) / batchChunk
	pool.ForEach(chunks, func(c int) {
		lo := c * batchChunk
		hi := min(lo+batchChunk, len(schs))
		lws := make([]*schedule.Lowered, hi-lo)
		for i := range lws {
			lws[i] = memo.Lower(t, schs[lo+i])
		}
		a := getScratch()
		scores := m.forward(&a.Scratch, lws)
		for i := range lws {
			out[lo+i] = scores.At(i, 0)
		}
		putScratch(a)
	})
	return out
}

// arena is a pooled nn.Scratch, linked into the free list through next
// while parked, so parking one never allocates.
type arena struct {
	nn.Scratch
	next *arena
}

// scratchPool is the process's free list of arenas, shared by verify
// (one drawn per predict chunk) and fit (one per replica step), so a new
// session's first fit draws arenas its predicts already grew. A
// mutex-guarded intrusive stack rather than sync.Pool: the GC may empty
// a sync.Pool between rounds, dropping warmed arenas and refuting the
// warm-state guarantee the AllocsPerRun gates measure. It has no cap:
// its length converges to the peak number of chunks and steps in flight
// across every session's pool, which nothing in the process bounds, and
// the last arena parked is the first drawn.
var scratchPool struct {
	mu   sync.Mutex
	free *arena
}

// getScratch pops a warmed arena, or builds a fresh one when none is
// parked (cold path only).
func getScratch() *arena {
	scratchPool.mu.Lock()
	a := scratchPool.free
	if a != nil {
		scratchPool.free, a.next = a.next, nil
	}
	scratchPool.mu.Unlock()
	if a == nil {
		a = &arena{}
	}
	return a
}

// putScratch rewinds and parks an arena for the next chunk or step.
func putScratch(a *arena) {
	a.Reset()
	scratchPool.mu.Lock()
	a.next, scratchPool.free = scratchPool.free, a
	scratchPool.mu.Unlock()
}

// ParkedScratchBytes reports the storage the parked arenas hold: the
// capacity of their buffers, in bytes. It reads the free list under its
// lock, so it sees no arena half parked.
func ParkedScratchBytes() int64 {
	scratchPool.mu.Lock()
	defer scratchPool.mu.Unlock()
	var n int64
	for a := scratchPool.free; a != nil; a = a.next {
		n += a.BufferBytes()
	}
	return n
}

// statementBatch concatenates every candidate's statement feature rows
// (shared cache references, no copies) plus the per-candidate segment
// lengths, both on s.
func statementBatch(s *nn.Scratch, lws []*schedule.Lowered) ([][]float64, []int) {
	lens := s.Ints(len(lws))
	total := 0
	for i, lw := range lws {
		lens[i] = len(features.Statement(lw))
		total += lens[i]
	}
	rows := s.Rows(total)[:0]
	for _, lw := range lws {
		rows = append(rows, features.Statement(lw)...)
	}
	return rows, lens
}

// sequenceBatch concatenates every candidate's feature sequence — seq
// rows at most, from extract — in deduplicated form (nn.DedupRowsIn) plus
// the per-candidate segment lengths, all on s. Both sequence families
// repeat rows across a batch: dataflow sequences are zero-padded to a
// fixed length, and TLP's primitive tokens are near-constant one-hots
// where only split factors vary (the model's documented low feature
// diversity). The models project each distinct row, and the attention
// runs its Q/K/V, once and gather. The extractors are hot-path roots of
// their own, since the lint call graph does not follow a function value.
func sequenceBatch(s *nn.Scratch, lws []*schedule.Lowered, extract func(*schedule.Lowered) [][]float64, seq int) (uniq [][]float64, idx, lens []int) {
	lens = s.Ints(len(lws))
	rows := s.Rows(len(lws) * seq)[:0]
	for i, lw := range lws {
		r := extract(lw)
		lens[i] = len(r)
		rows = append(rows, r...)
	}
	uniq, idx = nn.DedupRowsIn(s, rows)
	return uniq, idx, lens
}
