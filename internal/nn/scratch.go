// Scratch: the grow-only arena behind the zero-allocation inference
// path. The batched cost-model engine calls the arena kernels once per
// candidate chunk, thousands of times per tuning round; with a warmed
// Scratch every *In kernel runs without touching the heap (pinned by the
// TestAlloc* gates and the hotalloc analyzer), so the verify stage stops
// feeding the garbage collector.
//
// A Scratch hands out zeroed buffers and reset tensor headers in call
// order and is rewound wholesale with Reset — allocation happens only
// while a buffer sequence is still growing toward its steady-state
// shape. Buffers alias memory owned by the Scratch: results needed
// beyond the next Reset must be copied out (see scoresOut in
// costmodel). A Scratch is single-goroutine state; concurrent engine
// chunks draw distinct instances from a free list.

package nn

// Scratch is a grow-only arena of float64/int buffers and Tensor
// headers, reused across arena-kernel calls. The zero value is ready to
// use.
type Scratch struct {
	floatBufs [][]float64
	floatN    int
	intBufs   [][]int
	intN      int
	tensors   []*Tensor
	tensorN   int
}

// Reset rewinds the arena: every buffer and tensor handed out since the
// last Reset is reclaimed (and its memory retained for reuse).
func (s *Scratch) Reset() {
	s.floatN, s.intN, s.tensorN = 0, 0, 0
}

// floats returns a zeroed float buffer of length n. The slot grows when
// n exceeds its previous capacity and is reused otherwise.
func (s *Scratch) floats(n int) []float64 {
	if s.floatN < len(s.floatBufs) && cap(s.floatBufs[s.floatN]) >= n {
		buf := s.floatBufs[s.floatN][:n]
		s.floatN++
		clear(buf)
		return buf
	}
	buf := make([]float64, n)
	if s.floatN < len(s.floatBufs) {
		s.floatBufs[s.floatN] = buf
	} else {
		s.floatBufs = append(s.floatBufs, buf) //pruner:allow hotalloc — arena growth: amortized away once the buffer sequence reaches steady-state shape
	}
	s.floatN++
	return buf
}

// ints returns a zeroed int buffer of length n (same reuse contract as
// floats).
func (s *Scratch) ints(n int) []int {
	if s.intN < len(s.intBufs) && cap(s.intBufs[s.intN]) >= n {
		buf := s.intBufs[s.intN][:n]
		s.intN++
		clear(buf)
		return buf
	}
	buf := make([]int, n)
	if s.intN < len(s.intBufs) {
		s.intBufs[s.intN] = buf
	} else {
		s.intBufs = append(s.intBufs, buf) //pruner:allow hotalloc — arena growth: amortized away once the buffer sequence reaches steady-state shape
	}
	s.intN++
	return buf
}

// tensor returns a zeroed r x c tensor whose Data aliases arena memory.
// The header itself is reused too, with no tape state: scratch tensors
// never carry gradients.
func (s *Scratch) tensor(r, c int) *Tensor {
	var t *Tensor
	if s.tensorN < len(s.tensors) {
		t = s.tensors[s.tensorN]
	} else {
		t = &Tensor{}
		s.tensors = append(s.tensors, t) //pruner:allow hotalloc — arena growth: amortized away once the header sequence reaches steady-state shape
	}
	s.tensorN++
	t.R, t.C = r, c
	t.Data = s.floats(r * c)
	t.Grad = nil
	t.requiresGrad = false
	t.back = nil
	t.prev = nil
	return t
}

// newTensor is the allocation seam every kernel output goes through:
// arena-backed when a Scratch is supplied, a fresh heap tensor when s is
// nil (how the tape operators call the kernels).
func newTensor(s *Scratch, r, c int) *Tensor {
	if s == nil {
		return New(r, c)
	}
	return s.tensor(r, c)
}

// scratchFloats is the nil-tolerant spelling of Scratch.floats for
// kernels that accept an optional arena.
func scratchFloats(s *Scratch, n int) []float64 {
	if s == nil {
		return make([]float64, n)
	}
	return s.floats(n)
}

// scratchInts is the nil-tolerant spelling of Scratch.ints.
func scratchInts(s *Scratch, n int) []int {
	if s == nil {
		return make([]int, n)
	}
	return s.ints(n)
}

// identityInts returns 0..n-1: the contraction list of a dense GEMM.
func identityInts(s *Scratch, n int) []int {
	ks := scratchInts(s, n)
	for k := range ks {
		ks[k] = k
	}
	return ks
}
