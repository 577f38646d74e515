package nn

import "fmt"

// This file is the data-parallel training substrate: the fused training
// ops and parameter aliasing. The parallel LambdaRank trainer
// (internal/costmodel) runs one forward/backward per task group on an
// architecture replica whose parameters share the live model's weight
// memory but accumulate gradients into the replica's own Grad buffers, so
// concurrent backwards never write shared state. Reducing the replicas'
// gradients into the live parameters in a fixed replica order
// (Adam.StepFrom) keeps the fitted weights bitwise independent of the
// worker count.

// Affine is the fused training op out = x@W + b, optionally through
// ReLU: one tape node, so a Linear layer's forward draws one output and
// one gradient buffer. The forward is the GEMM kernel (matmulFused),
// bitwise identical for the finite weights training produces to separate
// matmul, bias and ReLU passes (the test suite's reference loops); the
// backward fuses the ReLU mask, the bias column-sum and the two gradient
// GEMMs, each summing per element in ascending order, and is pinned bit
// for bit by TestAffinePinned.
func Affine(x, w, b *Tensor, relu bool) *Tensor {
	if w.R != x.C || b.R != 1 || b.C != w.C {
		panic(fmt.Sprintf("nn: affine %dx%d @ %dx%d + 1x%d", x.R, x.C, w.R, w.C, b.C))
	}
	s, grad := opArena(x, w, b)
	return matmulFused(s, x, w, b.Data, relu).link(grad, node{op: opAffine, a: x, b: w, c: b, flag: relu})
}

// affineRows is Affine fed directly from feature rows on s, the rows op
// every model's input layer runs. The caller states the rows' stored
// width k <= W.R, and every row must be exactly k wide, so a row family
// fed to the wrong layer panics instead of passing as zero-extended; a
// row stands for itself zero-extended to W.R (features stores only the
// columns that can be nonzero). The rows are copied whole into x and
// multiplied by W's first k rows: W itself when k == W.R, else a leaf
// over W's leading k·C elements, Data and Grad, so the backward adds dW
// into W.Grad's leading rows. A column past k is zero in every row, so its
// terms are exact zeros the full-width product adds nothing from; a
// column zero in every row within k is a step the strip skips in every
// row pair. The forward is therefore bitwise Affine(FromRows(rows), w, b,
// relu) over the zero-extended rows, and so are the W and b gradients.
// The rows carry no gradient.
func affineRows(s *Scratch, rows [][]float64, k int, w, b *Tensor, relu bool) *Tensor {
	if k > w.R {
		panic(fmt.Sprintf("nn: affineRows rows %d wide for a %dx%d weight", k, w.R, w.C))
	}
	x := s.tensorRaw(len(rows), k)
	for i, r := range rows {
		if len(r) != k {
			panic(fmt.Sprintf("nn: affineRows ragged row %d vs %d", len(r), k))
		}
		copy(x.Data[i*k:(i+1)*k], r)
	}
	if k < w.R {
		lead := s.header(k, w.C, w.Data[:k*w.C])
		if w.requiresGrad {
			lead.requiresGrad, lead.Grad = true, w.Grad[:k*w.C]
		}
		w = lead
	}
	return Affine(x, w, b, relu)
}

// affineBackward is Affine's backward. Both gradient GEMMs run on the
// forward's strip (gemm.go); their temporaries come from s, drawn in the
// same sequence whatever the shapes, so a warmed pass allocates nothing
// and keeps every arena slot in one role.
//
//pruner:hotpath
func affineBackward(s *Scratch, x, w, b, out *Tensor, relu bool) {
	K, C := x.C, w.C
	g := out.Grad
	// The chain's ReLU backward: gradient flows only where the
	// pre-activation was positive — equivalently where the fused output
	// is (max(pre, 0) > 0 iff pre > 0). Masked in place: out.Grad is
	// dead once this backward has run. Then db, the column sum of g,
	// accumulates into b.Grad row by row, in place. One pass does both
	// (maskBias).
	var mask, db []float64
	if relu {
		mask = out.Data
	}
	if b.requiresGrad {
		db = b.Grad
	}
	if mask != nil || db != nil {
		maskBias(g, mask, db, C)
	}
	if x.requiresGrad {
		// dX = g @ Wᵀ: output columns are W's rows, so the strip's
		// operand is the transposed panel. Each element is one dot over j
		// in ascending order — the chain's xGrad[k] += dot.
		wT := s.floatsRaw(C * K)
		transposeInto(wT, w.Data, K, C)
		stripAddRows(x.Grad, K, g, 0, C, 1, wT, K, C, s.floatsRaw(2*K))
	}
	if w.requiresGrad {
		// dW = xᵀ @ g: output rows are W's rows; the contraction runs
		// over batch rows in ascending order, each step's two scalars read
		// down columns k and k+1 of x (lda = K), so no transposed copy of
		// x is made.
		stripAddRows(w.Grad, C, x.Data, 0, 1, K, g, C, x.R, s.floatsRaw(2*C))
	}
}

// attend is the attention core on the tape: one node over the gathered
// projections q, k, v, whatever the number of segments. The segment
// lengths are checked before any is used. Its forward is attendIn, whose
// softmax blocks it keeps on the tape; its backward (attendBackward) is
// pinned bit for bit by TestAttentionTapePinned.
func attend(q, k, v *Tensor, lens []int, scale float64) *Tensor {
	maxN := checkSegments("attention", lens, q.R)
	s, grad := opArena(q, k, v)
	out, probs := attendIn(s, q, k, v, lens, maxN, scale)
	return out.link(grad, node{op: opAttention, a: q, b: k, c: v, ints: lens, saved: probs, k: scale})
}

// attendBackward is attend's backward. It visits the segments last to
// first and, within one, hands the value, key and query rows their
// gradients in that order: the accumulation order of the per-segment
// operator chain (slice, transpose, scores, scale, softmax, value mix,
// stack) it replaced, whose digest TestAttentionTapePinned keeps. Per
// segment, with P the saved softmax block and G the output gradient rows,
// every product but dS runs on the strip, each element summed in
// ascending order from zero:
//
//	dP = G Vᵀ   over a transposed panel of the segment's values
//	dV = Pᵀ G   P's scalars read down its columns (lda = n)
//	dS = P ∘ (dP − rowsum(dP ∘ P)) · scale
//	dQ = dS K
//	dK = dSᵀ Q  dS read down its columns; q·s for s·q commutes exactly
//
// dP, dV, dK and dQ are written whole into raw scratch blocks, never
// cleared, and dV, dK and dQ are then added to the operands' gradients.
// Temporaries come from s.
//
//pruner:hotpath
func attendBackward(s *Scratch, q, k, v, out *Tensor, lens []int, probs []float64, scale float64) {
	C, maxN := q.C, checkSegments("attention", lens, out.R)
	dP := s.floatsRaw(maxN * maxN)
	dV, dK, dQ := s.floatsRaw(maxN*C), s.floatsRaw(maxN*C), s.floatsRaw(maxN*C)
	vT := s.floatsRaw(C * maxN)
	off, pOff := out.R, len(probs)
	for sg := len(lens) - 1; sg >= 0; sg-- {
		n := lens[sg]
		off -= n
		pOff -= n * n
		P, at := probs[pOff:pOff+n*n], off*C // at: the segment's first element
		dv, dk, dq, dp := dV[:n*C], dK[:n*C], dQ[:n*C], dP[:n*n]
		transposeInto(vT, v.Data[at:at+n*C], n, C)
		stripRows(dp, n, out.Grad, at, C, 1, vT, n, C)
		stripRows(dv, C, P, 0, 1, n, out.Grad[at:], C, n)
		for i := 0; i < n; i++ {
			row, grow := P[i*n:i*n+n], dp[i*n:i*n+n]
			var dot float64
			for j := range row {
				dot += grow[j] * row[j]
			}
			for j := range row {
				grow[j] = row[j] * (grow[j] - dot) * scale
			}
		}
		stripRows(dq, C, dp, 0, n, 1, k.Data[at:], C, n)
		stripRows(dk, C, dp, 0, 1, n, q.Data[at:], C, n)
		addRows(v, off, dv)
		addRows(k, off, dk)
		addRows(q, off, dq)
	}
}

// addRows adds a block of gradient rows into t's rows from off on.
func addRows(t *Tensor, off int, block []float64) {
	if t.requiresGrad {
		addInto(t.Grad[off*t.C:off*t.C+len(block)], block)
	}
}

// stripAddRows adds the product stripRows would write over the c-wide
// rows of grad into them, two rows a call through acc (2·c long): the
// strip sums each pair from +0.0 and the pair is then added, so every
// element of grad gains one finished sum. An odd last row is both rows
// of its strip.
func stripAddRows(grad []float64, c int, a []float64, aOff, aStep, lda int, b []float64, ldb, K int, acc []float64) {
	r := len(grad) / c
	for i := 0; i < r; i += 2 {
		i1 := min(i+1, r-1)
		n := i1 - i + 1
		gemmStrip(acc[:c], acc[(n-1)*c:n*c], a, aOff+i*aStep, aOff+i1*aStep, lda, b, ldb, K, nil, false)
		addInto(grad[i*c:(i+n)*c], acc)
	}
}

// The gradient adds in Go, element by element: the loops the lane
// kernels (train_amd64.s) reproduce bit for bit and the fallback where
// there are none. Each ranges over dst with its sources cut to
// len(dst), so the compiler drops every bounds check.

// addGo is dst[i] += src[i].
func addGo(dst, src []float64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] += src[i]
	}
}

// addScaledGo is dst[i] += src[i]·s, written product first: the order
// the compiler keeps for ADDSD's sources (whose first NaN wins) in every
// build, -race included, where the += form loads dst first.
func addScaledGo(dst, src []float64, s float64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] = src[i]*s + dst[i]
	}
}

// drainGo is addScaledGo that also zeroes src as it reads it.
func drainGo(dst, src []float64, s float64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] = src[i]*s + dst[i]
		src[i] = 0
	}
}

// maskBiasGo is affineBackward's ReLU mask and bias gradient over
// columns lo … c−1 of g's c-wide rows, row by row: each row of g is
// zeroed where out is not positive (out nil: no mask), then added into
// db (nil: no bias gradient).
func maskBiasGo(g, out, db []float64, c, lo int) {
	for r := 0; r < len(g); r += c {
		gRow := g[r+lo : r+c]
		if out != nil {
			oRow := out[r+lo : r+c][:len(gRow)]
			for j := range gRow {
				if !(oRow[j] > 0) {
					gRow[j] = 0
				}
			}
		}
		if db != nil {
			addGo(db[lo:c], gRow)
		}
	}
}

// AliasParams points each replica parameter's Data at the master
// parameter's backing array (a slice-header copy, no element copy).
// After aliasing, forwards through the replica read the master's live
// weights; the replica's Grad buffers stay its own. Shapes must match.
func AliasParams(replica, master []*Tensor) {
	if len(replica) != len(master) {
		panic(fmt.Sprintf("nn: AliasParams count mismatch %d vs %d", len(replica), len(master)))
	}
	for i, r := range replica {
		m := master[i]
		if r.R != m.R || r.C != m.C {
			panic(fmt.Sprintf("nn: AliasParams shape mismatch at %d: %dx%d vs %dx%d", i, r.R, r.C, m.R, m.C))
		}
		r.Data = m.Data
	}
}
