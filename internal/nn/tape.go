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
	opAdd
	opTanh
	opConcatCols
	opGatherRows
	opSegmentRows
	opLayerNorm
	opAffine
	opAttention
	// opLambdaRank is a scalar whose gradient w.r.t. a is saved/k:
	// LambdaRankLoss's lambdas over its pair count.
	opLambdaRank
)

// node is the record a tape node keeps for its backward: the op, its
// tensor operands, and the op's constants and saved forward state.
type node struct {
	op      op
	a, b, c *Tensor
	ints    []int     // segment lengths or gather indices
	saved   []float64 // forward state the backward reads
	k       float64   // attention's score scale, or LambdaRank's divisor
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
	case opAdd:
		if a.requiresGrad {
			addInto(a.Grad, g)
		}
		if b.requiresGrad {
			addInto(b.Grad, g)
		}
	case opTanh:
		for i, gv := range g {
			y := out.Data[i]
			addGrad(a, i, gv*(1-y*y))
		}
	case opConcatCols:
		for i := 0; i < a.R; i++ {
			gRow := g[i*out.C : (i+1)*out.C]
			if a.requiresGrad {
				addInto(a.Grad[i*a.C:(i+1)*a.C], gRow)
			}
			if b.requiresGrad {
				addInto(b.Grad[i*b.C:(i+1)*b.C], gRow[a.C:])
			}
		}
	case opGatherRows:
		// Duplicates scatter-accumulate into their representative in
		// ascending output row order.
		for i, j := range n.ints {
			addRows(a, j, g[i*a.C:(i+1)*a.C])
		}
	case opSegmentRows:
		segmentBackward(a, out, n.ints, n.flag)
	case opLayerNorm:
		layerNormBackward(a, b, n.c, out, n.saved)
	case opAffine:
		affineBackward(out.arena, a, b, n.c, out, n.flag)
	case opAttention:
		attendBackward(out.arena, a, b, n.c, out, n.ints, n.saved, n.k)
	case opLambdaRank:
		gv := g[0] / n.k
		for i, l := range n.saved {
			addGrad(a, i, gv*l)
		}
	}
}

// segmentBackward scatters out's per-segment gradient rows back over x's
// rows in ascending row order, scaled by 1/len when mean is set.
func segmentBackward(x, out *Tensor, lens []int, mean bool) {
	if !x.requiresGrad {
		return
	}
	row := 0
	for s, n := range lens {
		gRow := out.Grad[s*x.C : (s+1)*x.C]
		inv := 1.0
		if mean {
			inv = 1 / float64(n)
		}
		for range n {
			addScaledInto(x.Grad[row*x.C:(row+1)*x.C], gRow, inv)
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
