package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// bitwiseEqual asserts two tensors match exactly — the engine's contract
// is bitwise identity, not approximate equality.
func bitwiseEqual(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	if got.R != want.R || got.C != want.C {
		t.Fatalf("%s: shape %dx%d want %dx%d", name, got.R, got.C, want.R, want.C)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: entry %d: %v (bits %x) want %v (bits %x)",
				name, i, got.Data[i], math.Float64bits(got.Data[i]),
				want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// randConst returns a constant tensor with Gaussian entries and a sprinkle
// of exact zeros, exercising the matmul zero-skip path.
func randConst(rng *rand.Rand, r, c int) *Tensor {
	x := New(r, c)
	for i := range x.Data {
		if rng.Intn(5) == 0 {
			continue // exact zero
		}
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

// rowsView returns a zero-copy view of rows [lo, hi) of x, sharing its
// backing array: the per-segment reference the segment kernels are
// checked against. x must not carry gradients (a view cannot propagate
// them), so it panics on a gradient-carrying tensor.
func rowsView(x *Tensor, lo, hi int) *Tensor {
	if x.requiresGrad {
		panic("nn: rowsView of a gradient-carrying tensor")
	}
	if lo < 0 || hi > x.R || lo >= hi {
		panic(fmt.Sprintf("nn: rowsView [%d,%d) of %d rows", lo, hi, x.R))
	}
	return &Tensor{R: hi - lo, C: x.C, Data: x.Data[lo*x.C : hi*x.C]}
}

func TestSegmentSumRowsMatchesPerSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	lens := []int{3, 1, 5, 2}
	x := randConst(rng, 11, 7)
	got := SegmentSumRows(x, lens)
	row := 0
	for s, n := range lens {
		want := sumRowsRef(rowsView(x, row, row+n))
		for j := 0; j < x.C; j++ {
			if math.Float64bits(got.At(s, j)) != math.Float64bits(want.At(0, j)) {
				t.Fatalf("segment %d col %d: %v want %v", s, j, got.At(s, j), want.At(0, j))
			}
		}
		row += n
	}
}

func TestSegmentMeanRowsMatchesPerSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	lens := []int{4, 2, 6}
	x := randConst(rng, 12, 5)
	got := SegmentMeanRows(x, lens)
	row := 0
	for s, n := range lens {
		want := meanRowsRef(rowsView(x, row, row+n))
		for j := 0; j < x.C; j++ {
			if math.Float64bits(got.At(s, j)) != math.Float64bits(want.At(0, j)) {
				t.Fatalf("segment %d col %d: %v want %v", s, j, got.At(s, j), want.At(0, j))
			}
		}
		row += n
	}
}

func TestGradSegmentSumRows(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := randParam(rng, 6, 3)
	w := randParam(rng, 3, 3)
	checkGrads(t, "segmentsumrows", []*Tensor{x}, func() *Tensor {
		return weightedMean(SegmentSumRows(x, []int{2, 3, 1}), w.Data)
	})
}

func TestGradSegmentMeanRows(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := randParam(rng, 5, 4)
	w := randParam(rng, 2, 4)
	checkGrads(t, "segmentmeanrows", []*Tensor{x}, func() *Tensor {
		return weightedMean(SegmentMeanRows(x, []int{4, 1}), w.Data)
	})
}

func TestSegmentOpsPanicOnBadLengths(t *testing.T) {
	x := New(4, 2)
	for _, tc := range []struct {
		name string
		lens []int
	}{
		{"short", []int{1, 2}},
		{"long", []int{3, 3}},
		{"zero", []int{4, 0}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			SegmentSumRows(x, tc.lens)
		}()
	}
}

// TestAttentionPanicsOnBadLengths checks the attention core's segment
// lengths before it uses any: lengths that fall short of the rows, run
// past them, or include an empty segment each panic with the named
// message, not a slice-bounds one.
func TestAttentionPanicsOnBadLengths(t *testing.T) {
	q, k, v := New(4, 3), New(4, 3), New(4, 3)
	for _, tc := range []struct {
		name string
		lens []int
		want string
	}{
		{"short", []int{1, 2}, "nn: attention lengths sum to 3, tensor has 4 rows"},
		{"long", []int{3, 3}, "nn: attention lengths sum to 6, tensor has 4 rows"},
		{"zero", []int{4, 0}, "nn: attention segment 1 has length 0"},
	} {
		func() {
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("%s: panic %v, want %q", tc.name, got, tc.want)
				}
			}()
			attend(q, k, v, tc.lens, 1)
		}()
	}
}

func TestMatMulFusedMatchesOps(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	// Odd row counts run a row as both rows of its strip; sprinkled zeros
	// exercise the per-step skip and the steps where only one row is zero.
	for _, shape := range [][3]int{{5, 7, 9}, {1, 4, 4}, {3, 11, 2}, {8, 3, 13}, {6, 16, 8}} {
		r, k, c := shape[0], shape[1], shape[2]
		a := randConst(rng, r, k)
		w := randConst(rng, k, c)
		bias := make([]float64, c)
		for j := range bias {
			bias[j] = rng.NormFloat64()
		}
		bitwiseEqual(t, "fused plain", matmulFused(nil, a, w, nil, false), affineRef(a, w, nil, false))
		bitwiseEqual(t, "fused bias", matmulFused(nil, a, w, bias, false), affineRef(a, w, bias, false))
		bitwiseEqual(t, "fused bias+relu", matmulFused(nil, a, w, bias, true), affineRef(a, w, bias, true))
		bitwiseEqual(t, "fused relu", matmulFused(nil, a, w, nil, true), affineRef(a, w, nil, true))
	}
}

// TestMatMulFusedAllZeroRow pins the sparse fast path: rows of exact
// zeros (feature padding) must produce the same bits as the reference.
func TestMatMulFusedAllZeroRow(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	a := New(3, 8) // all zeros
	a.Data[2*8+5] = rng.NormFloat64()
	w := randConst(rng, 8, 6)
	bitwiseEqual(t, "zero rows", matmulFused(nil, a, w, nil, false), affineRef(a, w, nil, false))
}

func TestRowsViewSharesData(t *testing.T) {
	x := randConst(rand.New(rand.NewSource(26)), 6, 4)
	v := rowsView(x, 2, 5)
	if v.R != 3 || v.C != 4 {
		t.Fatalf("view shape %dx%d", v.R, v.C)
	}
	x.Set(3, 1, 42)
	if v.At(1, 1) != 42 {
		t.Fatal("view must alias the parent's data")
	}
	rng := rand.New(rand.NewSource(27))
	p := Param(rng, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("rowsView of a parameter should panic")
		}
	}()
	rowsView(p, 0, 1)
}

// bothScratches runs check twice: with a nil Scratch (every output on the
// heap) and with an arena that an unrelated training forward has already
// dirtied, so a kernel that trusted stale arena contents instead of its
// zeroed outputs would show up as a bit difference.
func bothScratches(rng *rand.Rand, check func(name string, s *Scratch)) {
	check("nil scratch", nil)
	var s Scratch
	rows, _ := randRows(rng, 12, 9)
	NewMLP(rng, 9, 16, 16, 6).ForwardReLURows(&s, rows, 9)
	s.Reset()
	check("warm scratch", &s)
}

// onArena copies x onto s (nil = heap): the input of an arena forward.
func onArena(s *Scratch, x *Tensor) *Tensor {
	t := s.tensor(x.R, x.C)
	copy(t.Data, x.Data)
	return t
}

// randRows returns n feature rows of the given width plus the same
// values as one tensor.
func randRows(rng *rand.Rand, n, width int) ([][]float64, *Tensor) {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = randConst(rng, 1, width).Data
	}
	return rows, FromRows(rows)
}

// perSegment applies f to each contiguous row segment of x alone and
// stacks the results: the per-segment composition the segment operators
// must match bit for bit.
func perSegment(f func(*Tensor) *Tensor, x *Tensor, lens []int) *Tensor {
	out := &Tensor{}
	row := 0
	for _, n := range lens {
		part := f(rowsView(x, row, row+n))
		out.R, out.C = out.R+part.R, part.C
		out.Data = append(out.Data, part.Data...)
		row += n
	}
	return out
}

// affineRef is x@w, then the bias row, then ReLU, as the separate plain
// passes the fused kernels replace: the contraction in ascending k,
// skipping zero activations term by term (so ±0 bits match), the bias
// added to each finished sum, and ReLU as a v > 0 test (+0.0 otherwise).
func affineRef(x, w *Tensor, bias []float64, relu bool) *Tensor {
	out := New(x.R, w.C)
	for i := 0; i < x.R; i++ {
		oRow := out.Data[i*w.C : (i+1)*w.C]
		for k, av := range x.Data[i*x.C : (i+1)*x.C] {
			if av == 0 {
				continue
			}
			for j, wv := range w.Data[k*w.C : (k+1)*w.C] {
				oRow[j] += av * wv
			}
		}
		for j := range oRow {
			if bias != nil {
				oRow[j] += bias[j]
			}
			if relu && !(oRow[j] > 0) {
				oRow[j] = 0
			}
		}
	}
	return out
}

// mlpChain is MLP.Forward as plain loops, one affineRef per layer: ReLU
// between layers and, with reluLast, after the last one too.
func mlpChain(m *MLP, x *Tensor, reluLast bool) *Tensor {
	for i, l := range m.Layers {
		x = affineRef(x, l.W, l.B.Data, reluLast || i+1 < len(m.Layers))
	}
	return x
}

// forwardRef is the attention block over one segment as plain loops: the
// Q/K/V projections, the scores (each a full dot over ascending columns,
// zero query terms skipped, then one multiply by the scale), softmaxRow,
// the value mix, the O projection, the residual and the layer norm.
func (a *SelfAttention) forwardRef(x *Tensor) *Tensor {
	q := affineRef(x, a.Q.W, a.Q.B.Data, false)
	k := affineRef(x, a.K.W, a.K.B.Data, false)
	v := affineRef(x, a.V.W, a.V.B.Data, false)
	kT := New(x.C, x.R)
	for i := 0; i < x.R; i++ {
		for c := 0; c < x.C; c++ {
			kT.Data[c*x.R+i] = k.Data[i*x.C+c]
		}
	}
	probs := affineRef(q, kT, nil, false)
	for i := 0; i < x.R; i++ {
		row := probs.Data[i*x.R : (i+1)*x.R]
		for j := range row {
			row[j] *= a.scale()
		}
		softmaxRow(row)
	}
	h := affineRef(affineRef(probs, v, nil, false), a.O.W, a.O.B.Data, false)
	for i, xv := range x.Data {
		h.Data[i] = xv + h.Data[i]
	}
	return layerNormRowsIn(nil, h, a.Norm.G, a.Norm.B, nil)
}

// sumRowsRef is the column sum over x's rows, in row order.
func sumRowsRef(x *Tensor) *Tensor {
	out := New(1, x.C)
	for i := 0; i < x.R; i++ {
		for j, v := range x.Data[i*x.C : (i+1)*x.C] {
			out.Data[j] += v
		}
	}
	return out
}

// meanRowsRef is sumRowsRef times the reciprocal row count.
func meanRowsRef(x *Tensor) *Tensor {
	out := sumRowsRef(x)
	inv := 1 / float64(x.R)
	for j := range out.Data {
		out.Data[j] *= inv
	}
	return out
}

// TestFrozenModulesBitwiseIdentical pins the one forward's core contract:
// under FreezeParams every module — the rows op, the MLP and the segment
// attention, on a nil and on a dirtied warm Scratch — is bitwise
// identical to the plain reference loops or the per-segment composition
// it batches.
func TestFrozenModulesBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(28))

	lin := NewLinear(rng, 9, 6)
	mlp := NewMLP(rng, 9, 16, 16, 1)
	attn := NewSelfAttention(rng, 6)
	var params []*Tensor
	params = append(params, lin.Params()...)
	params = append(params, mlp.Params()...)
	params = append(params, attn.Params()...)
	defer FreezeParams(params)()

	rows, _ := randRows(rng, 12, 9)
	for _, r := range rows {
		r[2], r[7] = 0, 0 // zero columns: steps the strip skips in every row pair
	}
	x := FromRows(rows)
	lens := []int{4, 3, 5}
	tokens := randConst(rng, 12, 6)
	uniq := randConst(rng, 5, 6)
	idx := []int{0, 1, 0, 2, 3, 0, 4, 1, 2, 0, 3, 4}
	linChain := mlpChain(&MLP{Layers: []*Linear{lin}}, x, false)

	bothScratches(rng, func(name string, s *Scratch) {
		bitwiseEqual(t, name+": linear rows", lin.ForwardRows(s, rows, 9), linChain)
		bitwiseEqual(t, name+": linear", lin.Forward(onArena(s, x)), linChain)
		bitwiseEqual(t, name+": mlp", mlp.Forward(onArena(s, x)), mlpChain(mlp, x, false))
		bitwiseEqual(t, name+": mlp+relu rows", mlp.ForwardReLURows(s, rows, 9), mlpChain(mlp, x, true))
		bitwiseEqual(t, name+": attention segments",
			attn.ForwardSegmentsDedup(onArena(s, tokens), identityInts(nil, tokens.R), lens), perSegment(attn.forwardRef, tokens, lens))
		bitwiseEqual(t, name+": attention dedup",
			attn.ForwardSegmentsDedup(onArena(s, uniq), idx, lens), perSegment(attn.forwardRef, GatherRows(uniq, idx), lens))
	})
}

// TestInferenceForwardBuildsNoTape verifies the no-tape property end to
// end: under FreezeParams the forward — an operator composition, the rows
// op and the segment attention, on the heap and on an arena — comes back
// without autograd state, and the arena records no node for Backward to
// walk.
func TestInferenceForwardBuildsNoTape(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	mlp := NewMLP(rng, 4, 8, 1)
	attn := NewSelfAttention(rng, 4)
	restore := FreezeParams(append(mlp.Params(), attn.Params()...))
	defer restore()
	rows, x := randRows(rng, 3, 4)
	lens := []int{1, 2}
	for name, y := range map[string]*Tensor{
		"module":    SegmentSumRows(Tanh(mlp.Forward(x)), lens),
		"rows":      mlp.ForwardReLURows(nil, rows, 4),
		"attention": attn.ForwardSegmentsDedup(x, []int{0, 1, 2}, lens),
	} {
		if y.requiresGrad || y.node.op != opNone || y.arena != nil || y.Grad != nil {
			t.Fatalf("%s inference forward carries tape state", name)
		}
	}
	var s Scratch
	SegmentMeanRows(attn.ForwardSegmentsDedup(onArena(&s, x), []int{0, 1, 2}, lens), lens)
	mlp.ForwardReLURows(&s, rows, 4)
	for i, h := range s.tensors[:s.tensorN] {
		if h.requiresGrad || h.node.op != opNone || h.Grad != nil {
			t.Fatalf("arena inference forward recorded a tape node at header %d", i)
		}
	}
}
