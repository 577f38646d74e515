// The GEMM strip: every contraction of the learned models — the forward
// x@W (matmulFused), dX = g@Wᵀ and dW = xᵀ@g (affineBackward), and the
// attention core's scores Q·Kᵀ and value mix P·V (attendIn) and its
// gradients dP = G·Vᵀ, dV = Pᵀ·G, dQ = dS·K and dK = dSᵀ·Q
// (attendBackward) — is a loop over pairs of output rows, each pair one
// call of
//
//	o0[j] = Σ_k a[off0 + k·lda] · b[k·ldb + j]
//	o1[j] = Σ_k a[off1 + k·lda] · b[k·ldb + j]         k < K, j < len(o0)
//
// each sum starting at +0.0, with k ascending per element and a step k
// skipped when both of its scalars are zero; then each output row is
// finished: o[j] += bias[j] when a bias is given, then o[j] = max(o[j], 0)
// when the ReLU is on. The outputs are written without being read, so
// every output block is drawn raw (scratch.go) and never cleared; a
// product that belongs in a gradient (dX, dW, dV, dK, dQ) is computed
// into such a block, dX and dW two rows at a time (stripAddRows), and
// then added there. Only the forward passes a bias
// or the ReLU. The forward, dX, the scores, the value mix, dP and dQ read
// their scalars along a row (lda = 1); dW, dV and dK read them down a
// column (lda = K for x, n for a segment's P or dS), so no transposed
// copy of the scalars is made.
// Where the output columns are another matrix's rows — dX's Wᵀ, the
// scores' Kᵀ, dP's Vᵀ — b is a transposed panel of it on the arena. An
// odd last row runs as both rows of its strip (o1 = o0, off1 = off0): the
// two halves compute the same values and store them to the same place
// (stripRows).
//
// The strip exists three times, picked once at init from what the
// processor and the operating system report, never by an option: an
// AVX-512 kernel that keeps a 2-row × 64-column block of outputs in
// sixteen zmm registers for the whole contraction, an AVX2 kernel that
// keeps a 2 × 16 block in eight ymm registers (both in gemm_amd64.s;
// ragged widths narrow to smaller blocks and one masked vector; each
// block adds the bias and takes the ReLU while its outputs are still in
// registers), and gemmStripGo below, which finishes its rows with epilogue: the
// fallback and the reference both are tested against. Lanes are output
// columns, never contraction steps, and the assembly multiplies and adds
// with separate instructions (no FMA), so each output element still
// rounds after every product and every sum, in ascending k: the three
// agree bit for bit (TestGemmBlockMatchesGo), and on one host a build
// without the assembly (-tags purego) computes the same sessions. Across
// hosts the pinned sessions hold only on amd64 with AVX and FMA: without
// FMA, math.Exp takes another path with other bits, and compilers for
// other architectures may fuse x*y + z — gemmStripGo's included — so the
// bits are pinned on amd64 until the deterministic layers own their
// transcendentals and round every product explicitly (ROADMAP.md).
//
// The skip leans on one IEEE fact: for finite operands a zero scalar
// contributes an exact ±0.0 term, which leaves a partial sum unchanged
// (no accumulator here is ever −0.0: each starts at +0.0, and a sum
// from +0.0 is never −0.0). All three kernels skip exactly the same
// steps even so.

package nn

import "math"

// gemmStripGo is the strip in Go. Go cannot pin a block of outputs in
// registers, so it gathers the steps that are not skipped four at a time
// and adds their terms in one pass over the two rows — each output
// element loaded and stored once per four terms, the four still added in
// ascending k — and a last one to three a step at a time, then finishes
// each distinct row with epilogue. It clears the two rows first.
// It is one function on purpose: a call inside the gather loop makes the
// compiler keep the loop's counters on the stack.
func gemmStripGo(o0, o1, a []float64, off0, off1, lda int, b []float64, ldb, K int, bias []float64, relu bool) {
	c := len(o0)
	o1 = o1[:c]
	clear(o0)
	clear(o1)
	var p, q [4]float64
	var rows [4]int // where the steps' rows start in b
	a0, a1 := a[off0:], a[off1:]
	for k, i := 0, 0; ; {
		n := 0
		for ; n < 4 && k < K; k, i = k+1, i+lda {
			pk, qk := a0[i], a1[i]
			// Skipped iff both are ±0.0: the assembly's test, on the bits.
			if (math.Float64bits(pk)|math.Float64bits(qk))<<1 != 0 {
				p[n], q[n], rows[n] = pk, qk, k*ldb
				n++
			}
		}
		if n < 4 {
			for t := range n {
				stripStepGo(o0, o1, p[t], q[t], b[rows[t]:][:c])
			}
			epilogue(o0, bias, relu)
			if &o1[0] != &o0[0] {
				epilogue(o1, bias, relu)
			}
			return
		}
		p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
		q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
		b0, b1, b2, b3 := b[rows[0]:][:c], b[rows[1]:][:c], b[rows[2]:][:c], b[rows[3]:][:c]
		for j := range o0 {
			bv0, bv1, bv2, bv3 := b0[j], b1[j], b2[j], b3[j]
			v, u := o0[j], o1[j] // both read before either is written: o1 may be o0
			v += p0 * bv0
			v += p1 * bv1
			v += p2 * bv2
			v += p3 * bv3
			u += q0 * bv0
			u += q1 * bv1
			u += q2 * bv2
			u += q3 * bv3
			o0[j], o1[j] = v, u
		}
	}
}

// stripStepGo adds one step's terms to both output rows.
func stripStepGo(o0, o1 []float64, p, q float64, bk []float64) {
	o1 = o1[:len(o0)]
	for j, bv := range bk {
		v, u := o0[j]+p*bv, o1[j]+q*bv
		o0[j], o1[j] = v, u
	}
}

// epilogue applies the bias add and ReLU to one finished output row, as
// separate bias and ReLU passes would: max(v+bias, 0), which is +0.0 for
// every v+bias ≤ 0, −0.0 included, and NaN for NaN (on amd64, the NaN's
// payload with its sign cleared). The assembly strips compute the same
// bits in registers.
func epilogue(oRow, bias []float64, relu bool) {
	switch {
	case bias != nil && relu:
		for j, bv := range bias {
			oRow[j] = max(oRow[j]+bv, 0)
		}
	case bias != nil:
		for j, bv := range bias {
			oRow[j] += bv
		}
	case relu:
		for j, v := range oRow {
			oRow[j] = max(v, 0)
		}
	}
}
