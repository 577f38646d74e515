package nn

// The tape. A node is a tensor some operator produced from
// gradient-carrying operands: its Grad buffer plus a record of the op and
// its operands (node below) — data, not a closure. Nodes are recorded in
// creation order, which is topological, as the header list of the arena
// the graph is built on (Scratch.tensors); Backward walks that list in
// reverse and runs each node's backward by its op kind. The arena is the
// operands' — every operator takes it from its inputs, so no operator
// signature names one — and is reset once per training pass, before the
// forward. Parameters carry no arena. A graph built from heap operands
// alone (FromRows, Param) records on a private arena its first node
// creates (opArena); two such graphs meeting at an operator are
// concatenated in operand order — still topological, since neither used
// the other, and the order a depth-first walk from the loss would list
// them in, so gradients shared between them accumulate in that order.

// op names the backward a tape node runs.
type op uint8

const (
	opNone op = iota // a leaf or a constant: nothing to propagate
	opMatMul
	opAddBias
	opAdd
	opSub
	opMul
	opScale
	opReLU
	opTanh
	opSoftmaxRows
	opTranspose
	opConcatCols
	opConcatRows
	opGatherRows
	opSumRows
	opSegmentRows
	opMeanAll
	opLayerNorm
	opAffine
	opAttention
	opLambdaRank
)

// node is the record a tape node keeps for its backward: the op, its
// tensor operands, and the op's constants and saved forward state.
type node struct {
	op      op
	a, b, c *Tensor
	list    []*Tensor // ConcatRows' operands
	ints    []int     // segment lengths or gather indices
	saved   []float64 // forward state the backward reads
	k       float64   // scale, or LambdaRank's pair count
	flag    bool      // ReLU fused (Affine), mean not sum (segment rows)
}

// join returns the arena an op continues on after meeting operand t:
// acc, t's arena, or the two merged (Scratch.absorb).
func join(acc *Scratch, t *Tensor) *Scratch {
	switch {
	case t == nil || t.arena == nil || t.arena == acc:
	case acc == nil:
		acc = t.arena
	default:
		acc.absorb(t.arena)
	}
	return acc
}

// tapeArena gives a gradient node whose operands carry no arena a private
// one: the heap-built graph records on it.
func tapeArena(s *Scratch, grad bool) *Scratch {
	if s == nil && grad {
		return &Scratch{heap: true}
	}
	return s
}

// opArena returns the arena an operator's output goes on and whether the
// output is a tape node (some operand carries gradients). b and c may be
// nil.
func opArena(a, b, c *Tensor) (*Scratch, bool) {
	grad := a.requiresGrad || b != nil && b.requiresGrad || c != nil && c.requiresGrad
	return tapeArena(join(join(join(nil, a), b), c), grad), grad
}

// link makes t a tape node when grad is set: a zeroed gradient buffer on
// t's arena and the op record. t must have been drawn from the arena
// opArena returned.
func (t *Tensor) link(grad bool, n node) *Tensor {
	if grad {
		t.requiresGrad = true
		t.Grad = t.arena.floats(t.R * t.C)
		t.node = n
	}
	return t
}

// Backward runs reverse-mode differentiation from t, which must be a
// 1x1 loss tensor. Parameter gradients accumulate (call ZeroGrad between
// steps). Every node recorded before t on its arena runs its backward, t
// first; nodes t does not depend on carry zero gradients and add nothing.
// The backward temporaries come from the same arena, so on a warmed one
// the pass allocates nothing.
func Backward(t *Tensor) {
	if t.R != 1 || t.C != 1 {
		panic("nn: Backward expects a scalar loss")
	}
	if !t.requiresGrad {
		return
	}
	t.Grad[0] = 1
	s := t.arena
	if s == nil {
		return // a parameter: its own gradient is the whole pass
	}
	i := s.tensorN - 1
	for i >= 0 && s.tensors[i] != t {
		i-- // nodes built after the loss cannot feed it
	}
	if i < 0 {
		panic("nn: Backward from a tensor its arena did not record")
	}
	for ; i >= 0; i-- {
		s.tensors[i].backward()
	}
}

// backward propagates out's gradient to its operands.
func (out *Tensor) backward() {
	n := &out.node
	a, b := n.a, n.b
	g := out.Grad
	switch n.op {
	case opNone:
	case opMatMul:
		matMulBackward(a, b, out)
	case opAddBias:
		for i := 0; i < a.R; i++ {
			for j := 0; j < a.C; j++ {
				gv := g[i*a.C+j]
				addGrad(a, i*a.C+j, gv)
				addGrad(b, j, gv)
			}
		}
	case opAdd:
		for i, gv := range g {
			addGrad(a, i, gv)
			addGrad(b, i, gv)
		}
	case opSub:
		for i, gv := range g {
			addGrad(a, i, gv)
			addGrad(b, i, -gv)
		}
	case opMul:
		for i, gv := range g {
			addGrad(a, i, gv*b.Data[i])
			addGrad(b, i, gv*a.Data[i])
		}
	case opScale:
		for i, gv := range g {
			addGrad(a, i, gv*n.k)
		}
	case opReLU:
		for i, gv := range g {
			if a.Data[i] > 0 {
				addGrad(a, i, gv)
			}
		}
	case opTanh:
		for i, gv := range g {
			y := out.Data[i]
			addGrad(a, i, gv*(1-y*y))
		}
	case opSoftmaxRows:
		for i := 0; i < a.R; i++ {
			row := out.Data[i*a.C : (i+1)*a.C]
			grow := g[i*a.C : (i+1)*a.C]
			var dot float64
			for j := range row {
				dot += grow[j] * row[j]
			}
			for j := range row {
				addGrad(a, i*a.C+j, row[j]*(grow[j]-dot))
			}
		}
	case opTranspose:
		for i := 0; i < a.R; i++ {
			for j := 0; j < a.C; j++ {
				addGrad(a, i*a.C+j, g[j*a.R+i])
			}
		}
	case opConcatCols:
		for i := 0; i < a.R; i++ {
			for j := 0; j < a.C; j++ {
				addGrad(a, i*a.C+j, g[i*out.C+j])
			}
			for j := 0; j < b.C; j++ {
				addGrad(b, i*b.C+j, g[i*out.C+a.C+j])
			}
		}
	case opConcatRows:
		off := 0
		for _, t := range n.list {
			for i := 0; i < t.R*t.C; i++ {
				addGrad(t, i, g[off+i])
			}
			off += t.R * t.C
		}
	case opGatherRows:
		// Duplicates scatter-accumulate into their representative in
		// ascending output row order.
		for i, j := range n.ints {
			addRows(a, j, g[i*a.C:(i+1)*a.C])
		}
	case opSumRows:
		for i := 0; i < a.R; i++ {
			for j := 0; j < a.C; j++ {
				addGrad(a, i*a.C+j, g[j])
			}
		}
	case opSegmentRows:
		segmentBackward(a, out, n.ints, n.flag)
	case opMeanAll:
		gv := g[0] / float64(a.R*a.C)
		for i := range a.Data {
			addGrad(a, i, gv)
		}
	case opLayerNorm:
		layerNormBackward(a, b, n.c, out, n.saved)
	case opAffine:
		affineBackward(out.arena, a, b, n.c, out, n.flag)
	case opAttention:
		attendBackward(out.arena, a, b, n.c, out, n.ints, n.saved, n.k)
	case opLambdaRank:
		gv := g[0] / n.k
		for i, l := range n.saved {
			addGrad(a, i*a.C, gv*l)
		}
	}
}

// matMulBackward is MatMul's backward: dA = dOut @ Bᵀ, dB = Aᵀ @ dOut,
// register-blocked four wide. Each gradient element accumulates its terms
// in ascending contraction order (chained v += for dB's i-blocks, the
// per-dot j loop for dA), so blocked results are bitwise identical to the
// plain loops; a blocked-in zero term contributes an exact ±0.0 for the
// finite values training produces, matching the per-term zero-skip it
// replaces.
func matMulBackward(a, b, out *Tensor) {
	K, C := a.C, b.C
	if a.requiresGrad {
		for i := 0; i < a.R; i++ {
			gRow := out.Grad[i*C : (i+1)*C]
			aGrad := a.Grad[i*K : (i+1)*K]
			k := 0
			for ; k+4 <= K; k += 4 {
				b0 := b.Data[k*C : k*C+C]
				b1 := b.Data[(k+1)*C : (k+1)*C+C]
				b2 := b.Data[(k+2)*C : (k+2)*C+C]
				b3 := b.Data[(k+3)*C : (k+3)*C+C]
				var s0, s1, s2, s3 float64
				for j, g := range gRow {
					s0 += g * b0[j]
					s1 += g * b1[j]
					s2 += g * b2[j]
					s3 += g * b3[j]
				}
				aGrad[k] += s0
				aGrad[k+1] += s1
				aGrad[k+2] += s2
				aGrad[k+3] += s3
			}
			for ; k < K; k++ {
				bRow := b.Data[k*C : (k+1)*C]
				var ga float64
				for j, g := range gRow {
					ga += g * bRow[j]
				}
				aGrad[k] += ga
			}
		}
	}
	if b.requiresGrad {
		i := 0
		for ; i+4 <= a.R; i += 4 {
			g0 := out.Grad[i*C : i*C+C]
			g1 := out.Grad[(i+1)*C : (i+1)*C+C]
			g2 := out.Grad[(i+2)*C : (i+2)*C+C]
			g3 := out.Grad[(i+3)*C : (i+3)*C+C]
			a0 := a.Data[i*K : i*K+K]
			a1 := a.Data[(i+1)*K : (i+1)*K+K]
			a2 := a.Data[(i+2)*K : (i+2)*K+K]
			a3 := a.Data[(i+3)*K : (i+3)*K+K]
			for k := 0; k < K; k++ {
				p0, p1, p2, p3 := a0[k], a1[k], a2[k], a3[k]
				if p0 == 0 && p1 == 0 && p2 == 0 && p3 == 0 {
					continue
				}
				bGrad := b.Grad[k*C : (k+1)*C]
				for j := range bGrad {
					v := bGrad[j]
					v += p0 * g0[j]
					v += p1 * g1[j]
					v += p2 * g2[j]
					v += p3 * g3[j]
					bGrad[j] = v
				}
			}
		}
		for ; i < a.R; i++ {
			gRow := out.Grad[i*C : (i+1)*C]
			aRow := a.Data[i*K : (i+1)*K]
			for k := 0; k < K; k++ {
				av := aRow[k]
				if av == 0 {
					continue
				}
				bGrad := b.Grad[k*C : (k+1)*C]
				for j, g := range gRow {
					bGrad[j] += av * g
				}
			}
		}
	}
}

// segmentBackward scatters out's per-segment gradient rows back over x's
// rows in ascending row order, scaled by 1/len when mean is set.
func segmentBackward(x, out *Tensor, lens []int, mean bool) {
	row := 0
	for s, n := range lens {
		gRow := out.Grad[s*x.C : (s+1)*x.C]
		inv := 1.0
		if mean {
			inv = 1 / float64(n)
		}
		for r := 0; r < n; r++ {
			base := row * x.C
			for j, g := range gRow {
				addGrad(x, base+j, g*inv)
			}
			row++
		}
	}
}

// layerNormBackward is LayerNormRows' backward over the normalised values
// and inverse stds the forward saved (layerNormRowsIn's layout).
func layerNormBackward(x, g, b, out *Tensor, saved []float64) {
	n := float64(x.C)
	norm, invStd := saved[:x.R*x.C], saved[x.R*x.C:]
	for i := 0; i < x.R; i++ {
		// dxhat_j = dy_j * g_j
		var sumDx, sumDxX float64
		for j := 0; j < x.C; j++ {
			dxh := out.Grad[i*x.C+j] * g.Data[j]
			sumDx += dxh
			sumDxX += dxh * norm[i*x.C+j]
		}
		for j := 0; j < x.C; j++ {
			idx := i*x.C + j
			dy := out.Grad[idx]
			dxh := dy * g.Data[j]
			addGrad(x, idx, invStd[i]*(dxh-sumDx/n-norm[idx]*sumDxX/n))
			addGrad(g, j, dy*norm[idx])
			addGrad(b, j, dy)
		}
	}
}
