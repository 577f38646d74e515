package nn

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestGradAffine finite-difference-checks the fused affine op, with and
// without the fused ReLU.
func TestGradAffine(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, relu := range []bool{false, true} {
		x := randParam(rng, 5, 4)
		w := randParam(rng, 4, 3)
		b := randParam(rng, 1, 3)
		// Shift pre-activations away from the ReLU kink.
		for i := range b.Data {
			b.Data[i] += 0.3
		}
		name := "affine"
		if relu {
			name = "affine+relu"
		}
		lossW := randConst(rng, 5, 3).Data
		checkGrads(t, name, []*Tensor{x, w, b}, func() *Tensor {
			return weightedMean(Affine(x, w, b, relu), lossW)
		})
	}
}

// TestAffineMatchesChain pins the fusion contract in the forward: Affine
// is bitwise identical to separate matmul, bias and ReLU passes (the
// affineRef loops). Its gradients are pinned by TestAffinePinned.
func TestAffineMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, relu := range []bool{false, true} {
		x := randParam(rng, 7, 6)
		// Sprinkle exact zeros: the kernel's blocked zero-skip must agree
		// with the reference's per-term skip.
		for i := 0; i < len(x.Data); i += 3 {
			x.Data[i] = 0
		}
		w := randParam(rng, 6, 5)
		b := randParam(rng, 1, 5)
		bitwiseEqual(t, fmt.Sprintf("relu=%v", relu), Affine(x, w, b, relu), affineRef(x, w, b.Data, relu))
	}
}

// TestAffinePinned pins the fused affine op bit for bit: its forward
// values and x, W and b gradients under a constant-weight loss, with the
// fused ReLU off and on, on TestAffineMatchesChain's operands, hash to
// the digest captured while the ReLU(AddBias(MatMul)) operator chain
// still agreed with them gradient for gradient.
func TestAffinePinned(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var vals [][]float64
	for _, relu := range []bool{false, true} {
		x := randParam(rng, 7, 6)
		for i := 0; i < len(x.Data); i += 3 {
			x.Data[i] = 0
		}
		w := randParam(rng, 6, 5)
		b := randParam(rng, 1, 5)
		y := Affine(x, w, b, relu)
		Backward(weightedMean(y, randConst(rng, y.R, y.C).Data))
		vals = append(vals, y.Data, x.Grad, w.Grad, b.Grad)
	}
	if got, want := digestFloats(vals...), "0f6ff8ad3b62f43f"; got != want {
		t.Errorf("affine values+gradients digest %s, pinned %s", got, want)
	}
}

// TestGradAffineRows finite-difference-checks the rows op's weight and
// bias gradients, with and without the fused ReLU, on rows whose columns
// 1 and 4 are zero throughout, and pins its forward values and W and b
// gradient bits to Affine over the zero-extended FromRows input.
func TestGradAffineRows(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, relu := range []bool{false, true} {
		rows := make([][]float64, 5)
		for i := range rows {
			rows[i] = randConst(rng, 1, 6).Data
			rows[i][1], rows[i][4] = 0, 0
		}
		w, b := randParam(rng, 6, 3), randParam(rng, 1, 3)
		// Shift pre-activations away from the ReLU kink.
		for i := range b.Data {
			b.Data[i] += 0.3
		}
		name := "affinerows"
		if relu {
			name += "+relu"
		}
		lossW := randConst(rng, len(rows), 3)
		checkGrads(t, name, []*Tensor{w, b}, func() *Tensor {
			return weightedMean(affineRows(nil, rows, 6, w, b, relu), lossW.Data)
		})
		affineRowsMatchesAffine(t, name, rows, w, b, lossW, relu)
	}
}

// affineRowsMatchesAffine runs the rows op over rows stated as wide as the
// first (on an arena) and Affine over FromRows(rows) — the rows
// zero-extended to W's height — through the
// same loss, each from zeroed W and b gradients as a training step
// starts, and demands identical forward values and W and b gradients,
// bit for bit. Raw draws are poisoned, so a packed input the rows op
// leaves partly unwritten shows as NaN.
func affineRowsMatchesAffine(t *testing.T, name string, rows [][]float64, w, b, lossW *Tensor, relu bool) {
	t.Helper()
	defer SetPoisonRaw(SetPoisonRaw(true))
	pass := func(f func() *Tensor) [3][]float64 {
		clear(w.Grad)
		clear(b.Grad)
		y := f()
		Backward(weightedMean(y, lossW.Data))
		return [3][]float64{slices.Clone(y.Data), slices.Clone(w.Grad), slices.Clone(b.Grad)}
	}
	var s Scratch
	got := pass(func() *Tensor { return affineRows(&s, rows, len(rows[0]), w, b, relu) })
	want := pass(func() *Tensor { return Affine(FromRows(zeroExtend(rows, w.R)), w, b, relu) })
	for i, part := range []string{"forward", "dW", "db"} {
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s: %s [%d] = %v (bits %x), Affine over FromRows %v (bits %x)",
					name, part, j, got[i][j], math.Float64bits(got[i][j]), want[i][j], math.Float64bits(want[i][j]))
			}
		}
	}
}

// TestAffineGradAddsOnce: an affine backward adds each product into a
// gradient once, as a finished sum. From finite gradients G, one backward
// leaves G + D in W.Grad and x.Grad bit for bit, D being what the same
// backward leaves on zeroed gradients: through Affine, with the ReLU off
// and on, and through the rows op over W's leading rows (k < W.R). One
// Linear applied twice in one graph adds the outer application's dW and
// then the inner one's: (G + D₂) + D₁, each Dᵢ taken from the same graph
// over two weight leaves sharing W's values. The bias is not a finished
// sum: from a non-zero b.Grad, db accumulates into it row by row, in
// place, so b.Grad ends as (((G + g₀) + g₁) + …), gᵢ being row i of the
// masked output gradient the backward leaves in out.Grad.
func TestAffineGradAddsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	gauss := func(ps []*Tensor) [][]float64 {
		gs := make([][]float64, len(ps))
		for i, p := range ps {
			gs[i] = randConst(rng, p.R, p.C).Data
		}
		return gs
	}
	// run starts each of ps's gradients at start (zeroed when nil), runs
	// graph's backward and returns the gradients it leaves.
	run := func(ps []*Tensor, start [][]float64, graph func() *Tensor) [][]float64 {
		for i, p := range ps {
			clear(p.Grad)
			if start != nil {
				copy(p.Grad, start[i])
			}
		}
		Backward(graph())
		out := make([][]float64, len(ps))
		for i, p := range ps {
			out[i] = slices.Clone(p.Grad)
		}
		return out
	}
	addsOnce := func(name string, ps []*Tensor, graph func() *Tensor) {
		t.Helper()
		G := gauss(ps)
		D := run(ps, nil, graph)
		got := run(ps, G, graph)
		for i := range ps {
			want := make([]float64, len(G[i]))
			for j := range want {
				want[j] = G[i][j] + D[i][j]
			}
			bitsEqual(t, fmt.Sprintf("%s param %d", name, i), got[i], want)
		}
	}
	for _, relu := range []bool{false, true} {
		x, w, b := randParam(rng, 7, 6), randParam(rng, 6, 5), randParam(rng, 1, 5)
		for i := 0; i < len(x.Data); i += 3 {
			x.Data[i] = 0
		}
		lossW := randConst(rng, 7, 5).Data
		addsOnce(fmt.Sprintf("affine relu=%v", relu), []*Tensor{x, w}, func() *Tensor {
			return weightedMean(Affine(x, w, b, relu), lossW)
		})
		var out *Tensor
		G := gauss([]*Tensor{b})
		got := run([]*Tensor{b}, G, func() *Tensor {
			out = Affine(x, w, b, relu)
			return weightedMean(out, lossW)
		})
		want := slices.Clone(G[0])
		for i := 0; i < out.R; i++ {
			for j := range want {
				want[j] += out.Grad[i*out.C+j]
			}
		}
		bitsEqual(t, fmt.Sprintf("affine relu=%v db row by row", relu), got[0], want)

		rows := make([][]float64, 5)
		for i := range rows {
			rows[i] = randConst(rng, 1, 4).Data
		}
		wr, br := randParam(rng, 6, 3), randParam(rng, 1, 3)
		lossR := randConst(rng, 5, 3).Data
		var s Scratch
		addsOnce(fmt.Sprintf("rows k=4 of 6 relu=%v", relu), []*Tensor{wr}, func() *Tensor {
			s.Reset()
			return weightedMean(affineRows(&s, rows, 4, wr, br, relu), lossR)
		})
	}

	l := &Linear{W: randParam(rng, 5, 5), B: randParam(rng, 1, 5)}
	x := randParam(rng, 4, 5)
	lossW := randConst(rng, 4, 5).Data
	twice := func(inner, outer *Tensor) func() *Tensor {
		return func() *Tensor {
			return weightedMean(Affine(Affine(x, inner, l.B, false), outer, l.B, false), lossW)
		}
	}
	inner, outer := ZeroParam(5, 5), ZeroParam(5, 5)
	AliasParams([]*Tensor{inner, outer}, []*Tensor{l.W, l.W})
	D := run([]*Tensor{inner, outer}, nil, twice(inner, outer))
	G := gauss([]*Tensor{l.W})
	got := run([]*Tensor{l.W}, G, func() *Tensor {
		return weightedMean(l.Forward(l.Forward(x)), lossW)
	})
	want := make([]float64, len(G[0]))
	for j := range want {
		want[j] = (G[0][j] + D[1][j]) + D[0][j]
	}
	bitsEqual(t, "one Linear twice: W", got[0], want)
	addsOnce("one Linear twice: x", []*Tensor{x}, func() *Tensor {
		return weightedMean(l.Forward(l.Forward(x)), lossW)
	})
}

// BenchmarkAffineStep times one Affine forward and backward, the ReLU on
// and x, W and b all taking gradients, on a warmed arena: at PaCM's
// hidden 60×96→96 and its statement input 60×164→96. Its ns/op is the
// strip's three products plus the gradient tail (ReLU mask, bias
// gradient, the two-row adds).
func BenchmarkAffineStep(b *testing.B) {
	for _, sh := range [][3]int{{60, 96, 96}, {60, 164, 96}} {
		r, k, c := sh[0], sh[1], sh[2]
		b.Run(fmt.Sprintf("%dx%d-%d", r, k, c), func(b *testing.B) {
			rng := rand.New(rand.NewSource(97))
			x, w, bias := randParam(rng, r, k), randParam(rng, k, c), randParam(rng, 1, c)
			outGrad := randConst(rng, r, c).Data
			var s Scratch
			b.ReportAllocs()
			for b.Loop() {
				s.Reset()
				out := matmulFused(&s, x, w, bias.Data, true)
				out.Grad = s.floatsRaw(r * c)
				copy(out.Grad, outGrad)
				affineBackward(&s, x, w, bias, out, true)
			}
		})
	}
}

// zeroExtend copies rows, each zero-extended to width.
func zeroExtend(rows [][]float64, width int) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = make([]float64, width)
		copy(out[i], r)
	}
	return out
}

// TestAffineRowsPanics: the rows op names its two width faults — a
// stated width wider than W, and a row whose width differs from the
// stated one, wider or narrower, the first row included (a row family
// fed to the wrong layer) and after rows that use every column.
func TestAffineRowsPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	w, b := randParam(rng, 4, 3), randParam(rng, 1, 3)
	for _, tc := range []struct {
		name, want string
		k          int
		rows       [][]float64
	}{
		{"wider than W", "rows 5 wide for a 4x3 weight", 5, [][]float64{{1, 2, 3, 4, 5}, {1, 2, 3, 4, 5}}},
		{"longer row", "ragged row 4 vs 3", 3, [][]float64{{1, 2, 3}, {1, 2, 3, 4}}},
		{"shorter row", "ragged row 2 vs 3", 3, [][]float64{{1, 2, 3}, {1, 2}}},
		{"wrong family", "ragged row 2 vs 3", 3, [][]float64{{1, 2}, {1, 2}}},
		{"ragged after full rows", "ragged row 4 vs 3", 3, [][]float64{{1, 2, 3}, {4, 5, 6}, {1, 2, 3, 4}}},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Errorf("%s: got panic %q, want %q", tc.name, msg, tc.want)
				}
			}()
			affineRows(nil, tc.rows, tc.k, w, b, false)
		}()
	}
}

// edgeValues are the operands most likely to expose a kernel that rounds,
// orders or flushes differently: both zeros, denormals, and magnitudes
// whose products overflow and underflow.
var edgeValues = []float64{
	0, math.Copysign(0, -1), 5e-324, -2.5e-310, 1e-300, -1e-300, 1e300, -1e300, 1, -1.5,
}

// floatFrom reads the n-th float64 of data (cyclically), any bit pattern.
func floatFrom(data []byte, n int) float64 {
	var raw [8]byte
	for i := range raw {
		raw[i] = data[(n*8+i)%len(data)]
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
}

// finiteFrom reads the n-th float64 of data (cyclically) and maps the
// non-finite bit patterns onto finite ones: the kernels contract finite
// operands only.
func finiteFrom(data []byte, n int) float64 {
	v := floatFrom(data, n)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return math.Float64frombits(math.Float64bits(v) &^ (1 << 62))
	}
	return v
}

// FuzzAffineRows feeds the rows op arbitrary finite rows K wide — columns
// whose zeroCols bit is set hold ±0.0 in every row — weights K+extra
// rows high and loss weights, and demands the forward and the W and b
// gradient bits of Affine over the FromRows input, the rows
// zero-extended to W's height. The seeds cover all-zero columns, ±0.0,
// denormals, a single row, odd widths and rows narrower than W.
func FuzzAffineRows(f *testing.F) {
	seed := make([]byte, 0, len(edgeValues)*8)
	for _, v := range edgeValues {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint16(0), false, seed)           // one row, one column, one output
	f.Add(uint8(4), uint8(6), uint8(2), uint8(0), uint16(0b0100101), true, seed)    // odd widths, three zero columns
	f.Add(uint8(3), uint8(8), uint8(4), uint8(0), uint16(0x1ff), false, seed[3:])   // every column zero
	f.Add(uint8(6), uint8(12), uint8(8), uint8(0), uint16(0b10010), true, seed[8:]) // widest shapes
	f.Add(uint8(1), uint8(4), uint8(6), uint8(0), uint16(0), true, seed[16:32])     // denormals and 1e±300 only
	f.Add(uint8(5), uint8(4), uint8(3), uint8(3), uint16(0b10), true, seed[5:])     // rows narrower than W
	f.Fuzz(func(t *testing.T, nRows, width, outW, extra uint8, zeroCols uint16, relu bool, data []byte) {
		if len(data) == 0 {
			return
		}
		n, K, C := int(nRows)%8+1, int(width)%13+1, int(outW)%9+1
		R := K + int(extra)%5 // W's height: the rows are K <= R wide
		i := 0
		next := func() float64 { i++; return finiteFrom(data, i) }
		rows := make([][]float64, n)
		for r := range rows {
			rows[r] = make([]float64, K)
			for k := range rows[r] {
				switch {
				case zeroCols>>k&1 == 0:
					rows[r][k] = next()
				case (r+k)%2 == 1:
					rows[r][k] = math.Copysign(0, -1)
				}
			}
		}
		w, b, lossW := ZeroParam(R, C), ZeroParam(1, C), New(n, C)
		for _, p := range []*Tensor{w, b, lossW} {
			for j := range p.Data {
				p.Data[j] = next()
			}
		}
		affineRowsMatchesAffine(t, "fuzz", rows, w, b, lossW, relu)
	})
}

// TestGradGatherRows checks the dedup expansion: gradients of duplicated
// rows must sum into their representative.
func TestGradGatherRows(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	src := randParam(rng, 3, 4)
	idx := []int{0, 2, 1, 2, 0, 2}
	w := randParam(rng, 6, 4)
	checkGrads(t, "gatherrows", []*Tensor{src}, func() *Tensor {
		return weightedMean(GatherRows(src, idx), w.Data)
	})
}

// TestDelegatedTapeOpsPinned pins the tape operators whose forward is an
// arena kernel (nil Scratch) plus an attached backward: for a fixed-seed
// graph through each one, the forward values and every input gradient
// hash to the digest captured before the forwards were delegated — so
// neither the values nor the gradient accumulation order moved a bit.
func TestDelegatedTapeOpsPinned(t *testing.T) {
	idx := []int{0, 2, 1, 2, 3, 2, 0}
	lens := []int{3, 1, 3}
	for _, tc := range []struct {
		name   string
		golden string
		op     func(a, b *Tensor) *Tensor
	}{
		{"tanh", "fcb0bb0df6d64b43", func(a, _ *Tensor) *Tensor { return Tanh(a) }},
		{"concatcols", "5b5daabead5f5a8f", func(a, b *Tensor) *Tensor { return ConcatCols(a, GatherRows(b, idx)) }},
		{"gatherrows", "f36f9a556893e959", func(_, b *Tensor) *Tensor { return GatherRows(b, idx) }},
		{"segmentsumrows", "73935cf8a31b071b", func(a, _ *Tensor) *Tensor { return SegmentSumRows(a, lens) }},
		{"segmentmeanrows", "2ec29359d3f100a8", func(a, _ *Tensor) *Tensor { return SegmentMeanRows(a, lens) }},
	} {
		rng := rand.New(rand.NewSource(70))
		a, b := randParam(rng, 7, 3), randParam(rng, 4, 5)
		out := tc.op(a, b)
		Backward(weightedMean(out, randConst(rng, out.R, out.C).Data))
		h := fnv.New64a()
		for _, vals := range [][]float64{out.Data, a.Grad, b.Grad} {
			for _, v := range vals {
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
			}
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.golden {
			t.Errorf("%s: values+gradients digest %s, pinned %s", tc.name, got, tc.golden)
		}
	}
}

// digestFloats is the FNV-64a of the value bits, in order: the gradient
// pins' fingerprint.
func digestFloats(vals ...[]float64) string {
	h := fnv.New64a()
	for _, vs := range vals {
		for _, v := range vs {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestAttentionTapePinned pins the training attention block bit for bit:
// the forward values, the token gradient (four consumers: the residual
// gather and the Q/K/V projections) and every Q/K/V/O/Norm parameter
// gradient through ForwardSegmentsDedup hash to the digest captured on the
// per-segment operator chain. Segment lengths include 1, and the tokens
// repeat.
func TestAttentionTapePinned(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	attn := NewSelfAttention(rng, 5)
	uniq := randParam(rng, 4, 5)
	idx := []int{0, 1, 0, 2, 3, 3, 1, 0, 2, 1}
	lens := []int{3, 1, 4, 1, 1}
	out := attn.ForwardSegmentsDedup(uniq, idx, lens)
	Backward(weightedMean(out, randConst(rng, out.R, out.C).Data))
	vals := [][]float64{out.Data, uniq.Grad}
	for _, p := range attn.Params() {
		vals = append(vals, p.Grad)
	}
	if got, want := digestFloats(vals...), "b7bb16a3f749ceaa"; got != want {
		t.Errorf("attention values+gradients digest %s, pinned %s", got, want)
	}
}

// TestLambdaRankLossPinned pins the LambdaRank loss value and its score
// gradient on tie-heavy inputs: tied scores make the rank positions — and
// so the |ΔNDCG| weights — depend on how the sort breaks ties, so the
// digest fixes the sort's permutation as well as the arithmetic.
func TestLambdaRankLossPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, tc := range []struct {
		n      int
		golden string
	}{
		{9, "ae6898bd23a1b51a"},
		{40, "d1b70c1164413d32"},
		{128, "213552a257377acc"},
	} {
		scores := ZeroParam(tc.n, 1)
		rel := make([]float64, tc.n)
		for i := range rel {
			scores.Data[i] = float64(rng.Intn(5)-2) / 2
			rel[i] = float64(rng.Intn(4)) / 4
		}
		loss := LambdaRankLoss(scores, rel)
		Backward(loss)
		if got := digestFloats(loss.Data, scores.Grad); got != tc.golden {
			t.Errorf("n=%d: loss+gradient digest %s, pinned %s", tc.n, got, tc.golden)
		}
	}
}

// TestForwardSegmentsMatchesPerSegment pins the training segment
// attention to the block run on each segment alone: forward values
// bitwise against the plain-loop reference, and summed parameter and
// token gradients, to close tolerance, against one graph per segment (the
// weight-gradient terms add in a different order).
func TestForwardSegmentsMatchesPerSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	attn := NewSelfAttention(rng, 6)
	lens := []int{3, 2, 4}
	x := randParam(rng, 9, 6)
	lossW := randConst(rng, 9, 6).Data

	ident := identityInts(nil, x.R)
	bitwiseEqual(t, "segment forward", attn.ForwardSegmentsDedup(x, ident, lens), perSegment(attn.forwardRef, x.Clone(), lens))

	grads := func(pass func()) []float64 {
		params := append([]*Tensor{x}, attn.Params()...)
		for _, p := range params {
			clear(p.Grad)
		}
		pass()
		var flat []float64
		for _, p := range params {
			flat = append(flat, p.Grad...)
		}
		return flat
	}
	gs := grads(func() { Backward(weightedMean(attn.ForwardSegmentsDedup(x, ident, lens), lossW)) })
	gr := grads(func() {
		off := 0
		for _, n := range lens {
			// The segment's share of the whole batch's mean.
			w := slices.Clone(lossW[off*x.C : (off+n)*x.C])
			for i := range w {
				w[i] *= float64(n) / float64(x.R)
			}
			seg := GatherRows(x, ident[off:off+n])
			Backward(weightedMean(attn.ForwardSegmentsDedup(seg, identityInts(nil, n), []int{n}), w))
			off += n
		}
	})
	for i := range gs {
		if math.Abs(gs[i]-gr[i]) > 1e-12*(1+math.Abs(gr[i])) {
			t.Fatalf("segment grad [%d] %g != per-segment %g", i, gs[i], gr[i])
		}
	}
}

// TestForwardSegmentsDedupMatches pins the gradient-aware dedup path to
// the expanded path: identical forward values, gradients to close
// tolerance (duplicate rows' projection gradients accumulate at the
// representative instead of per copy).
func TestForwardSegmentsDedupMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	attn := NewSelfAttention(rng, 4)
	lens := []int{3, 3}
	uniq := randParam(rng, 3, 4)
	idx := []int{0, 1, 0, 2, 2, 0} // heavy duplication, as TLP tokens show

	ded := attn.ForwardSegmentsDedup(uniq, idx, lens)
	ident := identityInts(nil, len(idx))
	exp := attn.ForwardSegmentsDedup(GatherRows(uniq, idx), ident, lens)
	for i := range ded.Data {
		if ded.Data[i] != exp.Data[i] {
			t.Fatalf("dedup forward value [%d] %g != expanded %g", i, ded.Data[i], exp.Data[i])
		}
	}

	lossW := randConst(rng, len(idx), 4).Data
	grads := func(out *Tensor) []float64 {
		for _, p := range append([]*Tensor{uniq}, attn.Params()...) {
			for i := range p.Grad {
				p.Grad[i] = 0
			}
		}
		Backward(weightedMean(out, lossW))
		var flat []float64
		for _, p := range append([]*Tensor{uniq}, attn.Params()...) {
			flat = append(flat, p.Grad...)
		}
		return flat
	}
	gd := grads(attn.ForwardSegmentsDedup(uniq, idx, lens))
	ge := grads(attn.ForwardSegmentsDedup(GatherRows(uniq, idx), ident, lens))
	for i := range gd {
		if math.Abs(gd[i]-ge[i]) > 1e-12*(1+math.Abs(ge[i])) {
			t.Fatalf("dedup grad [%d] %g != expanded %g", i, gd[i], ge[i])
		}
	}
}

// TestAddGrads covers the trainer's gradient plumbing: a replica aliased
// to the live parameters shares their values, its own Grad buffers
// capture a backward, and AddGrads reduces them into the live parameters
// with scaling.
func TestAddGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	w := randParam(rng, 2, 2)
	live := []*Tensor{w}

	rep := randParam(rng, 2, 2)
	AliasParams([]*Tensor{rep}, live)
	for i := range rep.Data {
		if rep.Data[i] != w.Data[i] {
			t.Fatal("AliasParams must share values")
		}
	}
	clear(rep.Grad)
	x := FromRows([][]float64{{1, 2}})
	Backward(weightedMean(Affine(x, rep, New(1, 2), false), []float64{1, 1}))
	if rep.Grad[0] == 0 {
		t.Fatal("the replica's Grad did not capture the backward")
	}

	for i := range w.Grad {
		w.Grad[i] = 0
	}
	AddGrads(live, []*Tensor{rep}, 0.5)
	for i := range w.Grad {
		if w.Grad[i] != rep.Grad[i]*0.5 {
			t.Fatalf("AddGrads wrong at %d: %g want %g", i, w.Grad[i], rep.Grad[i]*0.5)
		}
	}
	// The live parameter's own Grad buffer must be distinct storage.
	if &w.Grad[0] == &rep.Grad[0] {
		t.Fatal("the replica's Grad aliases the live gradient")
	}
}

// TestDecodeParamsRejectsMalformedBlobs pins the -model-in hardening: a
// bundle with inconsistent shape/data counts, short value rows or a
// non-finite weight errors out without mutating (or panicking) the
// destination model.
func TestDecodeParamsRejectsMalformedBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	dst := NewMLP(rng, 2, 3, 1)
	before := append([]float64(nil), dst.Params()[0].Data...)

	encode := func(blob paramBlob) *bytes.Buffer {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(blob); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	// Shapes shorter than Data: must error, not panic.
	blob := paramBlob{Data: make([][]float64, len(dst.Params()))}
	for i, p := range dst.Params() {
		blob.Data[i] = make([]float64, len(p.Data))
	}
	if err := LoadParams(encode(blob), dst.Params()); err == nil {
		t.Fatal("missing shapes must be rejected")
	}

	// Correct shapes but a short value row: must error before copying.
	blob.Shapes = nil
	for _, p := range dst.Params() {
		blob.Shapes = append(blob.Shapes, [2]int{p.R, p.C})
	}
	blob.Data[0] = blob.Data[0][:1]
	blob.Data[0][0] = 99
	if err := LoadParams(encode(blob), dst.Params()); err == nil {
		t.Fatal("short value row must be rejected")
	}

	// Complete rows, but one weight of the last parameter is not finite:
	// the error names that parameter and nothing is copied.
	last := len(blob.Data) - 1
	for i, p := range dst.Params() {
		blob.Data[i] = make([]float64, len(p.Data))
		blob.Data[i][0] = 99
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		blob.Data[last][len(blob.Data[last])-1] = bad
		err := LoadParams(encode(blob), dst.Params())
		if err == nil {
			t.Fatalf("weight %v must be rejected", bad)
		}
		if want := fmt.Sprintf("parameter %d ", last); !strings.Contains(err.Error(), want) {
			t.Fatalf("weight %v: error %q does not name %q", bad, err, want)
		}
	}
	for i, v := range dst.Params()[0].Data {
		if v != before[i] {
			t.Fatal("rejected bundle must not mutate the model")
		}
	}
}
