// The GEMM micro-kernel: every dense contraction of the learned models —
// the forward x@W (matmulFused), dX = g@Wᵀ and dW += xᵀ@g
// (affineBackward) — is a loop nest around one block,
//
//	o0[j] = (((o0[j] + p[0]·b0[j]) + p[1]·b1[j]) + p[2]·b2[j]) + p[3]·b3[j]
//	o1[j] = (((o1[j] + p[4]·b0[j]) + p[5]·b1[j]) + p[6]·b2[j]) + p[7]·b3[j]
//
// two output rows by four contraction steps over every output column.
// It exists twice: gemmBlockGo below, and an AVX2 version
// (gemm_amd64.s) that puts four output columns in the lanes. Lanes are
// output columns, never contraction steps, and the assembly multiplies
// and adds with separate instructions (no FMA), so each output element
// still rounds after every product and every sum, in ascending
// contraction order: the two kernels agree bit for bit
// (TestGemmBlockMatchesGo), and a build without the assembly — any other
// architecture, a pre-AVX2 host, or -tags purego — computes the same
// sessions.
//
// A step whose eight scalars are all zero is skipped by the callers, and
// a short last step is padded with zero scalars. Both lean on the same
// fact: for finite operands a zero scalar contributes an exact ±0.0,
// which leaves a partial sum unchanged (no accumulator here is ever
// −0.0: each starts at +0.0 or at a sum that did).

package nn

// gemmBlockGo is the micro-kernel in Go: the fallback and the reference
// the assembly is tested against. Every operand row is at least len(o0)
// long.
func gemmBlockGo(o0, o1, b0, b1, b2, b3 []float64, p *[8]float64) {
	p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
	q0, q1, q2, q3 := p[4], p[5], p[6], p[7]
	c := len(o0)
	o1, b0, b1, b2, b3 = o1[:c], b0[:c], b1[:c], b2[:c], b3[:c]
	for j := range o0 {
		bv0, bv1, bv2, bv3 := b0[j], b1[j], b2[j], b3[j]
		v := o0[j]
		v += p0 * bv0
		v += p1 * bv1
		v += p2 * bv2
		v += p3 * bv3
		o0[j] = v
		u := o1[j]
		u += q0 * bv0
		u += q1 * bv1
		u += q2 * bv2
		u += q3 * bv3
		o1[j] = u
	}
}

// gemmPair accumulates two output rows of a product:
//
//	o0[j] += Σ_k a[off0+k] · b[k·C+j]
//	o1[j] += Σ_k a[off1+k] · b[k·C+j]        k < K, C = len(o0)
//
// with k ascending per element. An odd last row is run by passing its
// offset twice and a spare o1.
func gemmPair(o0, o1, a []float64, off0, off1 int, b []float64, K int) {
	C := len(o0)
	var p [8]float64
	k := 0
	for ; k+4 <= K; k += 4 {
		p[0], p[1], p[2], p[3] = a[off0+k], a[off0+k+1], a[off0+k+2], a[off0+k+3]
		p[4], p[5], p[6], p[7] = a[off1+k], a[off1+k+1], a[off1+k+2], a[off1+k+3]
		if p == [8]float64{} {
			continue
		}
		gemmBlock(o0, o1, b[k*C:k*C+C], b[(k+1)*C:(k+1)*C+C], b[(k+2)*C:(k+2)*C+C], b[(k+3)*C:(k+3)*C+C], &p)
	}
	if k == K {
		return
	}
	// Short last step: zero scalars against a repeated row.
	p = [8]float64{}
	var rows [4][]float64
	for t := range rows {
		kt := min(k+t, K-1)
		rows[t] = b[kt*C : kt*C+C]
		if k+t < K {
			p[t], p[4+t] = a[off0+kt], a[off1+kt]
		}
	}
	if p != [8]float64{} {
		gemmBlock(o0, o1, rows[0], rows[1], rows[2], rows[3], &p)
	}
}
