package nn

import "fmt"

// This file is the data-parallel training substrate: parameter aliasing
// and detachable gradient storage. The parallel LambdaRank trainer
// (internal/costmodel) runs one forward/backward per task group on an
// architecture replica whose parameters share the live model's weight
// memory but accumulate gradients into a private GradSet, so concurrent
// backwards never write shared state. Reducing the per-group GradSets
// into the live parameters in a fixed group order keeps the fitted
// weights bitwise independent of the worker count.

// Affine is the fused training op out = x@W + b, optionally through
// ReLU: one tape node where the operator chain ReLU(AddBias(MatMul))
// builds three, so a Linear layer's forward allocates one output and one
// gradient buffer instead of three of each. The forward is the
// register-blocked GEMM kernel (matmulFusedIn, nil arena), which is
// bitwise identical to the chain for the finite weights training
// produces; the backward fuses the ReLU mask, the bias column-sum and
// the two gradient GEMMs, each accumulating per element in the same
// ascending order as the chain, so gradients are bitwise identical too.
func Affine(x, w, b *Tensor, relu bool) *Tensor {
	if w.R != x.C || b.R != 1 || b.C != w.C {
		panic(fmt.Sprintf("nn: affine %dx%d @ %dx%d + 1x%d", x.R, x.C, w.R, w.C, b.C))
	}
	out := matmulFusedIn(nil, x, w, b.Data, relu)
	if needsGrad(x, w, b) {
		out.enableGrad(func() { affineBackward(x, w, b, out, relu) }, x, w, b)
	}
	return out
}

func affineBackward(x, w, b, out *Tensor, relu bool) {
	K, C := x.C, w.C
	g := out.Grad
	if relu {
		// The chain's ReLU backward: gradient flows only where the
		// pre-activation was positive — equivalently where the fused
		// output is (max(pre, 0) > 0 iff pre > 0).
		g = make([]float64, len(out.Grad))
		for i, v := range out.Data {
			if v > 0 {
				g[i] = out.Grad[i]
			}
		}
	}
	if b.requiresGrad {
		for i := 0; i < out.R; i++ {
			gRow := g[i*C : (i+1)*C]
			for j, gv := range gRow {
				b.Grad[j] += gv
			}
		}
	}
	if x.requiresGrad {
		// dX = g @ W^T, blocked four contraction rows wide; each element
		// is one dot over j in ascending order.
		for i := 0; i < x.R; i++ {
			gRow := g[i*C : (i+1)*C]
			xGrad := x.Grad[i*K : (i+1)*K]
			k := 0
			for ; k+4 <= K; k += 4 {
				b0 := w.Data[k*C : k*C+C]
				b1 := w.Data[(k+1)*C : (k+1)*C+C]
				b2 := w.Data[(k+2)*C : (k+2)*C+C]
				b3 := w.Data[(k+3)*C : (k+3)*C+C]
				var s0, s1, s2, s3 float64
				for j, gv := range gRow {
					s0 += gv * b0[j]
					s1 += gv * b1[j]
					s2 += gv * b2[j]
					s3 += gv * b3[j]
				}
				xGrad[k] += s0
				xGrad[k+1] += s1
				xGrad[k+2] += s2
				xGrad[k+3] += s3
			}
			for ; k < K; k++ {
				bRow := w.Data[k*C : (k+1)*C]
				var s float64
				for j, gv := range gRow {
					s += gv * bRow[j]
				}
				xGrad[k] += s
			}
		}
	}
	if w.requiresGrad {
		// dW = x^T @ g, four activation rows per pass; per element the
		// row terms still add in ascending order (chained v +=), and a
		// blocked-in zero activation contributes an exact ±0.0.
		i := 0
		for ; i+4 <= x.R; i += 4 {
			g0 := g[i*C : i*C+C]
			g1 := g[(i+1)*C : (i+1)*C+C]
			g2 := g[(i+2)*C : (i+2)*C+C]
			g3 := g[(i+3)*C : (i+3)*C+C]
			a0 := x.Data[i*K : i*K+K]
			a1 := x.Data[(i+1)*K : (i+1)*K+K]
			a2 := x.Data[(i+2)*K : (i+2)*K+K]
			a3 := x.Data[(i+3)*K : (i+3)*K+K]
			for k := 0; k < K; k++ {
				p0, p1, p2, p3 := a0[k], a1[k], a2[k], a3[k]
				if p0 == 0 && p1 == 0 && p2 == 0 && p3 == 0 {
					continue
				}
				wGrad := w.Grad[k*C : (k+1)*C]
				for j := range wGrad {
					v := wGrad[j]
					v += p0 * g0[j]
					v += p1 * g1[j]
					v += p2 * g2[j]
					v += p3 * g3[j]
					wGrad[j] = v
				}
			}
		}
		for ; i < x.R; i++ {
			gRow := g[i*C : (i+1)*C]
			aRow := x.Data[i*K : (i+1)*K]
			for k := 0; k < K; k++ {
				av := aRow[k]
				if av == 0 {
					continue
				}
				wGrad := w.Grad[k*C : (k+1)*C]
				for j, gv := range gRow {
					wGrad[j] += av * gv
				}
			}
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

// GradSet is gradient storage matching a parameter list, detachable from
// the parameters that fill it: one zero-initialised buffer per parameter.
// A trainer keeps one GradSet per macro-batch slot and rebinds a replica
// to the slot it is currently computing.
type GradSet [][]float64

// NewGradSet allocates zeroed buffers shaped like params.
func NewGradSet(params []*Tensor) GradSet {
	g := make(GradSet, len(params))
	for i, p := range params {
		g[i] = make([]float64, len(p.Data))
	}
	return g
}

// Zero clears every buffer.
func (g GradSet) Zero() {
	for _, b := range g {
		for i := range b {
			b[i] = 0
		}
	}
}

// Bind points each parameter's Grad at the set's buffers, so the next
// Backward accumulates here. The caller owns the sequencing: bind, run
// one forward/backward, then the set holds that pass's leaf gradients.
func (g GradSet) Bind(params []*Tensor) {
	if len(g) != len(params) {
		panic(fmt.Sprintf("nn: GradSet.Bind count mismatch %d vs %d", len(g), len(params)))
	}
	for i, p := range params {
		if len(g[i]) != len(p.Data) {
			panic(fmt.Sprintf("nn: GradSet.Bind shape mismatch at %d", i))
		}
		p.Grad = g[i]
	}
}

// AddInto accumulates scale * g into the parameters' Grad buffers. The
// caller reduces slots in a fixed order, which is what makes the summed
// gradient — and everything downstream of it — independent of which
// worker produced each slot.
func (g GradSet) AddInto(params []*Tensor, scale float64) {
	if len(g) != len(params) {
		panic(fmt.Sprintf("nn: GradSet.AddInto count mismatch %d vs %d", len(g), len(params)))
	}
	for i, p := range params {
		b := g[i]
		for j := range b {
			p.Grad[j] += b[j] * scale
		}
	}
}
