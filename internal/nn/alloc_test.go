package nn

import (
	"math/rand"
	"testing"
)

// The zero-allocation gates: once a Scratch has warmed to the call
// pattern's steady-state shapes, the frozen forward — the rows op, the
// MLP, the segment attention and the segment reductions: the tape
// operators themselves, with no operand carrying gradients — and the
// fused training backward must not touch the heap at all. This is the
// dynamic cross-check of the static hotalloc analyzer — the analyzer
// proves no allocating constructs are reachable from the
// //pruner:hotpath roots, these tests prove the arena actually absorbs
// every output buffer. A regression in either shows up as a nonzero
// average from testing.AllocsPerRun. (The gates keep the TestAllocFrozen*
// and TestAlloc*In names CI's required-test list knows them by; the
// inference-only entry points those names once spelled are gone, and the
// gates pin the one forward in their place.)

// mustZeroAllocs pins f to zero steady-state heap allocations.
func mustZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f() // warm the arena to steady-state shapes
	if avg := testing.AllocsPerRun(50, f); avg != 0 {
		t.Errorf("%s: %v allocs per warmed run, want 0", name, avg)
	}
}

func TestAllocFrozenMLPForwardIn(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	mlp := NewMLP(rng, 9, 16, 16, 1)
	defer FreezeParams(mlp.Params())()
	_, x := randRows(rng, 24, 9)
	var s Scratch
	mustZeroAllocs(t, "frozen MLP.Forward", func() {
		s.Reset()
		mlp.Forward(onArena(&s, x))
	})
}

func TestAllocFrozenMLPForwardReLURowsIn(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	mlp := NewMLP(rng, 9, 16, 1)
	defer FreezeParams(mlp.Params())()
	rows, _ := randRows(rng, 24, 9)
	var s Scratch
	mustZeroAllocs(t, "frozen MLP.ForwardReLURows", func() {
		s.Reset()
		mlp.ForwardReLURows(&s, rows, 9)
	})
}

func TestAllocFrozenAttentionForwardSegmentsIn(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	attn := NewSelfAttention(rng, 6)
	defer FreezeParams(attn.Params())()
	_, x := randRows(rng, 12, 6)
	lens := []int{4, 3, 5}
	idx := identityInts(nil, x.R)
	var s Scratch
	mustZeroAllocs(t, "frozen SelfAttention.ForwardSegmentsDedup (identity)", func() {
		s.Reset()
		attn.ForwardSegmentsDedup(onArena(&s, x), idx, lens)
	})
}

func TestAllocFrozenAttentionForwardSegmentsDedupIn(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	attn := NewSelfAttention(rng, 6)
	defer FreezeParams(attn.Params())()
	_, uniq := randRows(rng, 5, 6)
	idx := []int{0, 1, 0, 2, 3, 0, 4, 1, 2}
	lens := []int{3, 2, 4}
	var s Scratch
	mustZeroAllocs(t, "frozen SelfAttention.ForwardSegmentsDedup", func() {
		s.Reset()
		attn.ForwardSegmentsDedup(onArena(&s, uniq), idx, lens)
	})
}

func TestAllocSegmentSumRowsIn(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	_, x := randRows(rng, 11, 7)
	lens := []int{3, 1, 5, 2}
	var s Scratch
	mustZeroAllocs(t, "SegmentSumRows / SegmentMeanRows on the arena", func() {
		s.Reset()
		y := onArena(&s, x)
		SegmentSumRows(y, lens)
		SegmentMeanRows(y, lens)
	})
}

// TestAllocAffineBackward is the training-side gate: with its temporaries
// (transposed weight panel, accumulators, index list, padding rows) on a
// warmed arena, the fused backward allocates nothing. Odd shapes take
// every padding path.
func TestAllocAffineBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	x, w, b := randParam(rng, 7, 9), randParam(rng, 9, 5), randParam(rng, 1, 5)
	out := Affine(x, w, b, true)
	var s Scratch
	mustZeroAllocs(t, "affineBackward", func() {
		s.Reset()
		affineBackward(&s, x, w, b, out, true)
	})
}

// TestScratchVariantsBitwiseIdentical pins the segment, tanh, concat and
// gather operators on an arena input — a nil and a dirtied warm Scratch —
// to their references: the per-segment column sums and means, and the
// same operator on heap operands (the reductions' per-segment meaning on
// the heap is pinned in infer_test.go).
func TestScratchVariantsBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	seg := randConst(rng, 11, 7)
	segLens := []int{3, 1, 5, 2}
	a, b := randConst(rng, 6, 3), randConst(rng, 6, 4)
	idx := []int{5, 0, 0, 3, 5, 1, 2}

	bothScratches(rng, func(name string, s *Scratch) {
		x := onArena(s, seg)
		bitwiseEqual(t, name+": segment sum", SegmentSumRows(x, segLens), perSegment(sumRowsRef, seg, segLens))
		bitwiseEqual(t, name+": segment mean", SegmentMeanRows(x, segLens), perSegment(meanRowsRef, seg, segLens))
		bitwiseEqual(t, name+": tanh", Tanh(x), Tanh(seg))
		bitwiseEqual(t, name+": concat cols", ConcatCols(onArena(s, a), onArena(s, b)), ConcatCols(a, b))
		bitwiseEqual(t, name+": gather rows", GatherRows(onArena(s, a), idx), GatherRows(a, idx))
	})
}

// TestScratchReuse pins the arena contract: after Reset the same slots
// come back (no growth), zeroed, and headers carry no tape state.
func TestScratchReuse(t *testing.T) {
	var s Scratch
	t1 := s.tensor(3, 4)
	t1.Data[0] = 7
	buf := s.floats(8)
	buf[3] = 9
	s.Reset()
	t2 := s.tensor(3, 4)
	if &t2.Data[0] != &t1.Data[0] {
		t.Error("tensor storage not reused after Reset")
	}
	for i, v := range t2.Data {
		if v != 0 {
			t.Fatalf("reused tensor entry %d not zeroed: %v", i, v)
		}
	}
	buf2 := s.floats(4)
	if &buf2[0] != &buf[0] {
		t.Error("float buffer not reused after Reset for smaller request")
	}
	if buf2[3] != 0 {
		// buf2 is len 4; index 3 was 9 in the old larger buffer only if
		// shared storage — the clear must have wiped it.
		t.Error("reused float buffer not zeroed")
	}
	if t2.requiresGrad || t2.node.op != opNone || t2.node.a != nil || t2.node.saved != nil || t2.Grad != nil {
		t.Error("scratch tensor carries tape state")
	}
	if t2.arena != &s {
		t.Error("scratch tensor does not name its arena")
	}
}
