// Scratch: the grow-only arena behind the zero-allocation cost-model
// path, inference and training alike. The batched cost-model engine
// runs a model's one forward once per candidate chunk, thousands of times
// per tuning round, and the trainer runs that forward and its backward
// once per task group; with a warmed Scratch neither touches the heap
// (pinned by the TestAlloc* gates and the hotalloc analyzer), so neither
// stage feeds the garbage collector.
//
// A Scratch hands out buffers and reset tensor headers in call order and
// is rewound wholesale with Reset — allocation happens only while a
// buffer sequence is still growing toward its steady-state shape. A
// float buffer is drawn one of two ways: zeroed (floats, tensor), for a
// buffer its kernel accumulates into — a gradient, dW, a segment sum —
// or raw (floatsRaw, tensorRaw), holding whatever its slot last held, for
// a buffer its kernel writes in every element before any read — a GEMM
// output in the strip's fresh mode (gemm.go), a gather, a transposed
// panel. A raw draw skips the clear, which is most of what an arena
// draw would otherwise cost; SetPoisonRaw fills raw draws with NaN, so a
// kernel that leaves one element unwritten shows in every value computed
// from it. (A nil Scratch's buffers are fresh heap memory, zeroed either
// way.) Buffers alias memory owned by the Scratch: results needed
// beyond the next Reset must be copied out. The header list doubles as
// the tape (tape.go): a training forward's nodes are the headers it drew,
// in creation order. A Scratch is single-goroutine state; concurrent
// engine chunks and training replicas each own one.
//
// Every method accepts a nil *Scratch and then allocates on the heap: the
// convention that lets one kernel serve the arena and the heap callers.

package nn

import (
	"math"
	"sync/atomic"
)

// Scratch is a grow-only arena of float64, int and row-view buffers and
// Tensor headers, reused across arena-kernel calls. The zero value is
// ready to use.
type Scratch struct {
	floatSlots slots[float64]
	intSlots   slots[int]
	rowSlots   slots[[]float64]
	tensors    []*Tensor
	tensorN    int
	// heap marks the private arena a heap-built graph records on (see
	// opArena): never Reset, so its storage lives exactly as long as the
	// graph.
	heap bool
}

// slots is one grow-only list of reusable buffers: get hands out slot i
// in call order, Reset rewinds to slot 0.
type slots[T any] struct {
	bufs [][]T
	n    int
}

// get returns a buffer of length n, zeroed when zero is set and holding
// the slot's last contents otherwise. The slot grows when n exceeds its
// previous capacity and is reused otherwise.
func (l *slots[T]) get(n int, zero bool) []T {
	if l.n < len(l.bufs) && cap(l.bufs[l.n]) >= n {
		buf := l.bufs[l.n][:n]
		l.n++
		if zero {
			clear(buf)
		}
		return buf
	}
	buf := make([]T, n)
	if l.n < len(l.bufs) {
		l.bufs[l.n] = buf
	} else {
		l.bufs = append(l.bufs, buf) //pruner:allow hotalloc — arena growth: amortized away once the buffer sequence reaches steady-state shape
	}
	l.n++
	return buf
}

// Reset rewinds the arena: every buffer and tensor handed out since the
// last Reset is reclaimed (and its memory retained for reuse).
func (s *Scratch) Reset() {
	s.floatSlots.n, s.intSlots.n, s.rowSlots.n, s.tensorN = 0, 0, 0, 0
}

// floats returns a zeroed float buffer of length n.
func (s *Scratch) floats(n int) []float64 {
	if s == nil {
		return make([]float64, n)
	}
	return s.floatSlots.get(n, true)
}

// floatsRaw returns a float buffer of length n with unspecified
// contents: the caller writes every element before it reads any.
func (s *Scratch) floatsRaw(n int) []float64 {
	if s == nil {
		return make([]float64, n)
	}
	buf := s.floatSlots.get(n, false)
	if poisonRaw.Load() {
		poison(buf)
	}
	return buf
}

// poisonRaw, when set, makes every raw arena draw and every output the
// assembly strips run fresh on (gemm_amd64.go) start as NaN, so an
// element its kernel fails to write poisons every value computed from
// it. A test hook; SetPoisonRaw sets it.
var poisonRaw atomic.Bool

// SetPoisonRaw turns the poisoning of raw draws and fresh strip outputs
// on or off for the process and reports the previous setting. It exists
// for tests that check every kernel writes what it does not clear.
func SetPoisonRaw(on bool) (was bool) {
	return poisonRaw.Swap(on)
}

// poison fills buf with NaN.
func poison(buf []float64) {
	for i := range buf {
		buf[i] = math.NaN()
	}
}

// Ints returns a zeroed int buffer of length n, valid until the next
// Reset.
func (s *Scratch) Ints(n int) []int {
	if s == nil {
		return make([]int, n)
	}
	return s.intSlots.get(n, true)
}

// Rows returns n nil row views, valid until the next Reset: storage for
// a batch's row list, whose rows themselves live elsewhere.
func (s *Scratch) Rows(n int) [][]float64 {
	if s == nil {
		return make([][]float64, n)
	}
	return s.rowSlots.get(n, true)
}

// tensor returns a zeroed r x c tensor whose Data aliases arena memory.
// The header itself is reused too, reset to carry no tape state.
func (s *Scratch) tensor(r, c int) *Tensor {
	if s == nil {
		return New(r, c)
	}
	return s.header(r, c, s.floats(r*c))
}

// tensorRaw is tensor drawn raw (floatsRaw): the caller writes every
// element of Data.
func (s *Scratch) tensorRaw(r, c int) *Tensor {
	if s == nil {
		return New(r, c)
	}
	return s.header(r, c, s.floatsRaw(r*c))
}

// header pushes a reset r x c tensor header over data onto the arena.
func (s *Scratch) header(r, c int, data []float64) *Tensor {
	var t *Tensor
	if s.tensorN < len(s.tensors) {
		t = s.tensors[s.tensorN]
	} else {
		t = new(Tensor)
	}
	s.push(t)
	*t = Tensor{R: r, C: c, Data: data, arena: s}
	return t
}

// push puts header t at the end of the arena's header list.
func (s *Scratch) push(t *Tensor) {
	if s.tensorN < len(s.tensors) {
		s.tensors[s.tensorN] = t
	} else {
		s.tensors = append(s.tensors, t) //pruner:allow hotalloc — arena growth: amortized away once the header sequence reaches steady-state shape
	}
	s.tensorN++
}

// absorb moves heap graph o's headers, in order, behind s's: two graphs
// built from heap operands met at an operator. Neither used the other, so
// the merged list is still topological. Arena graphs never merge: their
// nodes die at the arena's Reset, a heap graph's live as long as it does.
func (s *Scratch) absorb(o *Scratch) {
	if !s.heap || !o.heap {
		panic("nn: an operator's operands live on two arenas")
	}
	for _, t := range o.tensors[:o.tensorN] {
		t.arena = s
		s.push(t)
	}
	o.tensors, o.tensorN = nil, 0
}

// identityInts returns 0..n-1: a permutation's starting order.
func identityInts(s *Scratch, n int) []int {
	ks := s.Ints(n)
	for k := range ks {
		ks[k] = k
	}
	return ks
}
