// Arena kernels: the forward loops of the cost-model path, each written
// once, each the forward of the tape operator that calls it (Affine,
// Tanh, ConcatCols, GatherRows, SegmentSumRows, SegmentMeanRows,
// LayerNormRows and the attention core). An operator runs its kernel on
// the arena its operands carry and links the output onto the tape
// (tape.go) when an operand carries gradients. There is one forward: under
// FreezeParams nothing carries gradients, the operators record nothing,
// and the training forward is the inference forward — with a warmed
// arena it performs zero heap allocations, the contract the
// //pruner:hotpath annotations declare, the hotalloc analyzer enforces
// statically and the TestAlloc* gates pin dynamically.
//
// Every kernel accumulates each output element in ascending contraction
// order, exactly as the test suite's plain reference loops do (a matmul
// that skips zero terms, then bias, ReLU, softmax and layer norm as
// separate passes), so a batched arena forward is bitwise identical to
// the per-candidate composition (the property the cost-model equivalence
// tests pin). The kernels assume finite weights: a zero activation then
// contributes an exact ±0.0 term, which cannot perturb any partial sum,
// letting the inner loops run branchless where the reference branches per
// term.
package nn

import (
	"fmt"
	"math"
)

// matmulFused is the forward GEMM: out = x @ w (+ bias) (then ReLU), with
// the output drawn from s. It runs on the strip (gemm.go), one call per
// pair of output rows, each output element held in a register for the
// whole contraction and finished there with the bias and the ReLU. The
// strips run fresh, so the output is drawn raw and never cleared. Per
// element the terms still add in ascending k from +0.0, so the result is
// bitwise identical to separate matmul, bias and ReLU passes for finite
// w. A step whose two activations are both zero is skipped, matching the
// reference's per-term zero-skip; feature rows' structurally-zero
// columns never reach it (compactRowsIn). The engine
// counters tally forward GEMMs, so they are bumped here and not in the
// strip the backward and the attention core share.
func matmulFused(s *Scratch, x, w *Tensor, bias []float64, relu bool) *Tensor {
	if x.C != w.R {
		panic(fmt.Sprintf("nn: matmulFused %dx%d @ %dx%d", x.R, x.C, w.R, w.C))
	}
	engineGEMMCalls.Add(1)
	engineGEMMRows.Add(uint64(x.R))
	K, C := x.C, w.C
	out := s.tensorRaw(x.R, C)
	for i := 0; i < x.R; i += 2 {
		i1 := min(i+1, x.R-1) // an odd last row is both rows of its strip
		gemmStrip(out.Data[i*C:i*C+C], out.Data[i1*C:i1*C+C], x.Data, i*K, i1*K, 1, w.Data, C, K, bias, relu, true)
	}
	return out
}

// compactRowsIn builds a GEMM input directly from feature rows: columns
// that are zero in every row (padding tails, unused one-hot slots) are
// dropped at copy time, so the first GEMM runs the dense kernel on the
// surviving columns only. It returns the compacted tensor and the kept
// column indices (ascending); both alias s and are valid until its next
// Reset. Dropping an all-zero column removes only exact-zero terms from
// every output sum, so a layer fed through the correspondingly gathered
// weight panel (affineRows) is bitwise identical to the full-width
// forward. The scan for used columns stops once every column is used, so
// each row's width is checked where every row is visited: in the copy.
func compactRowsIn(s *Scratch, rows [][]float64, width int) (*Tensor, []int) {
	used := s.Ints(width)
	cnt := 0
	for _, r := range rows {
		if cnt == width {
			break
		}
		for k, v := range r[:min(len(r), width)] {
			if v != 0 && used[k] == 0 {
				used[k] = 1
				cnt++
			}
		}
	}
	cols := s.Ints(width)[:0]
	for k, u := range used {
		if u != 0 {
			cols = append(cols, k)
		}
	}
	if len(cols) == 0 {
		// Degenerate all-zero batch: keep one column so shapes stay valid.
		cols = append(cols, 0)
	}
	x := s.tensorRaw(len(rows), len(cols))
	for i, r := range rows {
		if len(r) != width {
			panic(fmt.Sprintf("nn: compactRows ragged row %d vs %d", len(r), width))
		}
		dst := x.Data[i*len(cols) : (i+1)*len(cols)]
		for n, k := range cols {
			dst[n] = r[k]
		}
	}
	return x, cols
}

// DedupRowsIn returns the distinct rows of a feature matrix in
// first-occurrence order plus the mapping from each original row to its
// representative, both on s. Rows compare by exact bit pattern, so
// substituting a representative's results for a duplicate's is always
// bitwise safe. The lookup is an open-addressing table of distinct-row
// numbers on s, probed linearly from a hash of the row's bits: no map, no
// keys, nothing on the heap once s is warm.
func DedupRowsIn(s *Scratch, rows [][]float64) (uniq [][]float64, idx []int) {
	idx = s.Ints(len(rows))
	uniq = s.Rows(len(rows))[:0]
	size := 1
	for size < 2*len(rows) {
		size <<= 1
	}
	table := s.Ints(size) // distinct-row number + 1; 0 = empty
	mask := uint64(size - 1)
	for i, r := range rows {
		for h := rowHash(r) & mask; ; h = (h + 1) & mask {
			j := table[h] - 1
			if j < 0 {
				table[h] = len(uniq) + 1
				idx[i] = len(uniq)
				uniq = append(uniq, r)
				break
			}
			if sameBits(uniq[j], r) {
				idx[i] = j
				break
			}
		}
	}
	return uniq, idx
}

// rowHash is FNV-1a over a row's 64-bit words.
func rowHash(r []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range r {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	return h
}

// sameBits reports whether two rows are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// GatherRows expands a deduplicated tensor: row i of the result is src
// row idx[i]. It is autograd-complete — the backward scatter-accumulates
// each output row's gradient into its representative (in ascending output
// row order, so gradients are deterministic) — which is what lets the
// forwards project a distinct row once and gather: bitwise identical in
// the forward, and the duplicates' gradients summed in the backward.
func GatherRows(src *Tensor, idx []int) *Tensor { return gatherRowsOn(nil, src, idx) }

// gatherRowsOn is GatherRows with its output on s when src carries no
// arena of its own: how a parameter's rows are gathered into a forward's
// arena (affineRows).
func gatherRowsOn(s *Scratch, src *Tensor, idx []int) *Tensor {
	grad := src.requiresGrad
	s = tapeArena(join(s, src), grad)
	return gatherRowsIn(s, src, idx).link(grad, node{op: opGatherRows, a: src, ints: idx})
}

// gatherRowsIn is the row-gather kernel: row i of the result is src row
// idx[i].
func gatherRowsIn(s *Scratch, src *Tensor, idx []int) *Tensor {
	out := s.tensorRaw(len(idx), src.C)
	for i, j := range idx {
		copy(out.Data[i*src.C:(i+1)*src.C], src.Data[j*src.C:(j+1)*src.C])
	}
	return out
}

// attendIn is the attention core over precomputed projections, the
// forward of the tape node attend, for segment lengths attend has
// checked (maxN the longest). Per segment it runs the scores Q·Kᵀ on the
// strip over a transposed panel of the segment's keys, multiplies each
// finished dot by scale, takes each row's softmax, and runs the value mix
// P·V on the strip: every value accumulated in the order of the
// per-segment composition softmax(scale · qs ksᵀ) vs. It also returns the
// softmax rows, one n×n block per segment in segment order, on s: the
// training node's saved state. Both products run fresh, so the segments'
// blocks, which tile ctx and the softmax rows, are drawn raw.
func attendIn(s *Scratch, q, k, v *Tensor, lens []int, maxN int, scale float64) (ctx *Tensor, probs []float64) {
	C := q.C
	ctx = s.tensorRaw(q.R, C)
	n2 := 0
	for _, n := range lens {
		n2 += n * n
	}
	probs = s.floatsRaw(n2)
	kT := s.floatsRaw(C * maxN)
	off, pOff := 0, 0
	for _, n := range lens {
		P := probs[pOff : pOff+n*n]
		transposeInto(kT, k.Data[off*C:(off+n)*C], n, C)
		stripRows(P, n, q.Data, off*C, C, 1, kT, n, C, true)
		for i := 0; i < n; i++ {
			row := P[i*n : i*n+n]
			for j := range row {
				row[j] *= scale
			}
			softmaxRow(row)
		}
		// A softmax weight is only zero on deep underflow; the exact ±0.0
		// term it contributes, or the step the strip skips, is harmless.
		stripRows(ctx.Data[off*C:(off+n)*C], C, P, 0, n, 1, v.Data[off*C:], C, n, true)
		off += n
		pOff += n * n
	}
	return ctx, probs
}

// stripRows runs the strip over every row of the c-wide output block o,
// two rows a call, fresh or accumulating: row i's K scalars start at
// a[aOff + i·aStep], lda apart. An odd last row is both rows of its
// strip.
func stripRows(o []float64, c int, a []float64, aOff, aStep, lda int, b []float64, ldb, K int, fresh bool) {
	r := len(o) / c
	for i := 0; i < r; i += 2 {
		i1 := min(i+1, r-1)
		gemmStrip(o[i*c:i*c+c], o[i1*c:i1*c+c], a, aOff+i*aStep, aOff+i1*aStep, lda, b, ldb, K, nil, false, fresh)
	}
}

// transposeInto writes the r×c matrix src transposed, c×r, into dst: the
// panel a strip runs over when its output columns are src's rows.
func transposeInto(dst, src []float64, r, c int) {
	for i := 0; i < r; i++ {
		for j, x := range src[i*c : i*c+c] {
			dst[j*r+i] = x
		}
	}
}

// softmaxRow replaces a row by its softmax in place: max-shifted
// exponentials, summed in ascending order, then each divided by the sum.
func softmaxRow(row []float64) {
	m := math.Inf(-1)
	for _, v := range row {
		m = math.Max(m, v)
	}
	var sum float64
	for j, v := range row {
		e := math.Exp(v - m)
		row[j] = e
		sum += e
	}
	for j := range row {
		row[j] /= sum
	}
}

// layerNormRowsIn is the layer-norm kernel: each row of x normalised to
// zero mean and unit variance, then scaled by g and shifted by b. When
// saved is non-nil (x.R*x.C + x.R long) the normalised values and the
// per-row inverse stds are kept there for the backward.
func layerNormRowsIn(s *Scratch, x, g, b *Tensor, saved []float64) *Tensor {
	const eps = 1e-5
	if g.R != 1 || g.C != x.C || b.R != 1 || b.C != x.C {
		panic("nn: layernorm parameter shape mismatch")
	}
	n := float64(x.C)
	out := s.tensorRaw(x.R, x.C)
	for i := 0; i < x.R; i++ {
		var mu float64
		for j := 0; j < x.C; j++ {
			mu += x.Data[i*x.C+j]
		}
		mu /= n
		var va float64
		for j := 0; j < x.C; j++ {
			d := x.Data[i*x.C+j] - mu
			va += d * d
		}
		va /= n
		inv := 1 / math.Sqrt(va+eps)
		if saved != nil {
			saved[x.R*x.C+i] = inv
		}
		for j := 0; j < x.C; j++ {
			idx := i*x.C + j
			nv := (x.Data[idx] - mu) * inv
			if saved != nil {
				saved[idx] = nv
			}
			out.Data[idx] = nv*g.Data[j] + b.Data[j]
		}
	}
	return out
}

// segmentSumRowsIn sums contiguous row segments of x: lens[sg] rows belong
// to segment sg (the lengths must sum to x.R) and row sg of the
// len(lens) x C result is their sum. Rows accumulate in order, so each
// output row is bitwise identical to the column sum over that segment
// alone — the reduction that pools a whole candidate batch's statement
// rows after one fused GEMM.
func segmentSumRowsIn(s *Scratch, x *Tensor, lens []int) *Tensor {
	checkSegments("SegmentSumRows", lens, x.R)
	out := s.tensor(len(lens), x.C)
	row := 0
	for sg, n := range lens {
		oRow := out.Data[sg*x.C : (sg+1)*x.C]
		for r := 0; r < n; r++ {
			xRow := x.Data[row*x.C : (row+1)*x.C]
			for j, v := range xRow {
				oRow[j] += v
			}
			row++
		}
	}
	return out
}

// checkSegments panics, naming op, unless every segment length is at
// least 1 and they sum to rows, and returns the longest.
func checkSegments(op string, lens []int, rows int) (maxN int) {
	total := 0
	for sg, n := range lens {
		if n <= 0 {
			panic(fmt.Sprintf("nn: %s segment %d has length %d", op, sg, n))
		}
		total += n
		maxN = max(maxN, n)
	}
	if total != rows {
		panic(fmt.Sprintf("nn: %s lengths sum to %d, tensor has %d rows", op, total, rows))
	}
	return maxN
}

// segmentMeanRowsIn averages contiguous row segments of x (see
// segmentSumRowsIn): sum in row order, then one multiply by the
// reciprocal length, so each output row is bitwise identical to that mean
// over the segment alone.
func segmentMeanRowsIn(s *Scratch, x *Tensor, lens []int) *Tensor {
	sum := segmentSumRowsIn(s, x, lens)
	out := s.tensorRaw(sum.R, sum.C)
	for sg, n := range lens {
		inv := 1 / float64(n)
		for j := 0; j < sum.C; j++ {
			out.Data[sg*sum.C+j] = sum.Data[sg*sum.C+j] * inv
		}
	}
	return out
}

// tanhIn applies the hyperbolic tangent elementwise.
func tanhIn(s *Scratch, x *Tensor) *Tensor {
	out := s.tensorRaw(x.R, x.C)
	for i, v := range x.Data {
		out.Data[i] = math.Tanh(v)
	}
	return out
}

// concatColsIn concatenates equal-row tensors side by side.
func concatColsIn(s *Scratch, a, b *Tensor) *Tensor {
	if a.R != b.R {
		panic(fmt.Sprintf("nn: concat rows %d vs %d", a.R, b.R))
	}
	cols := a.C + b.C
	out := s.tensorRaw(a.R, cols)
	for i := 0; i < a.R; i++ {
		copy(out.Data[i*cols:i*cols+a.C], a.Data[i*a.C:(i+1)*a.C])
		copy(out.Data[i*cols+a.C:(i+1)*cols], b.Data[i*b.C:(i+1)*b.C])
	}
	return out
}
