package nn

import (
	"math"
	"math/rand"
)

// Module is anything owning trainable parameters.
type Module interface {
	Params() []*Tensor
}

// Linear is a fully connected layer y = x@W + b.
type Linear struct {
	W, B *Tensor
}

// NewLinear builds a Linear with Xavier-initialised weights.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	return &Linear{W: Param(rng, in, out), B: ZeroParam(1, out)}
}

// Forward applies the layer to an (N x in) batch through the fused
// affine op: one tape node.
func (l *Linear) Forward(x *Tensor) *Tensor {
	return Affine(x, l.W, l.B, false)
}

// ForwardRows applies the layer directly to feature rows exactly k <= in
// wide, on s (nil = heap), through the rows op (affineRows): bitwise
// identical to Forward over FromRows of the rows zero-extended to in, with
// the rows' all-zero columns never contracted.
func (l *Linear) ForwardRows(s *Scratch, rows [][]float64, k int) *Tensor {
	return affineRows(s, rows, k, l.W, l.B, false)
}

// Params implements Module.
func (l *Linear) Params() []*Tensor { return []*Tensor{l.W, l.B} }

// LayerNorm holds the gain/bias of row-wise layer normalisation.
type LayerNorm struct {
	G, B *Tensor
}

// NewLayerNorm builds an identity-initialised LayerNorm over dim features.
func NewLayerNorm(dim int) *LayerNorm {
	g := ZeroParam(1, dim)
	for i := range g.Data {
		g.Data[i] = 1
	}
	return &LayerNorm{G: g, B: ZeroParam(1, dim)}
}

// Forward normalises each row of x.
func (l *LayerNorm) Forward(x *Tensor) *Tensor {
	return LayerNormRows(x, l.G, l.B)
}

// Params implements Module.
func (l *LayerNorm) Params() []*Tensor { return []*Tensor{l.G, l.B} }

// MLP is a stack of Linear+ReLU layers with a linear head.
type MLP struct {
	Layers []*Linear
}

// NewMLP builds an MLP with the given layer widths (len >= 2).
func NewMLP(rng *rand.Rand, widths ...int) *MLP {
	if len(widths) < 2 {
		panic("nn: MLP needs at least input and output widths")
	}
	m := &MLP{}
	for i := 0; i+1 < len(widths); i++ {
		m.Layers = append(m.Layers, NewLinear(rng, widths[i], widths[i+1]))
	}
	return m
}

// Forward applies ReLU between layers and no activation after the last,
// each layer as one fused affine node.
func (m *MLP) Forward(x *Tensor) *Tensor {
	for i, l := range m.Layers {
		x = Affine(x, l.W, l.B, i+1 < len(m.Layers))
	}
	return x
}

// ForwardReLURows applies ReLU after every layer including the last — the
// cost models' embedding MLPs — fed directly from feature rows, on s (nil
// = heap): the first layer is the rows op over rows exactly k wide (see
// Linear.ForwardRows).
func (m *MLP) ForwardReLURows(s *Scratch, rows [][]float64, k int) *Tensor {
	l0 := m.Layers[0]
	x := affineRows(s, rows, k, l0.W, l0.B, true)
	for _, l := range m.Layers[1:] {
		x = Affine(x, l.W, l.B, true)
	}
	return x
}

// Params implements Module.
func (m *MLP) Params() []*Tensor {
	var ps []*Tensor
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// SelfAttention is a single-head scaled dot-product self-attention block
// with a residual connection and layer normalisation — the contextual
// encoder PaCM and TLP use over their feature sequences.
type SelfAttention struct {
	Q, K, V, O *Linear
	Norm       *LayerNorm
	dim        int
}

// NewSelfAttention builds an attention block over dim-wide tokens.
func NewSelfAttention(rng *rand.Rand, dim int) *SelfAttention {
	return &SelfAttention{
		Q:    NewLinear(rng, dim, dim),
		K:    NewLinear(rng, dim, dim),
		V:    NewLinear(rng, dim, dim),
		O:    NewLinear(rng, dim, dim),
		Norm: NewLayerNorm(dim),
		dim:  dim,
	}
}

// ForwardSegmentsDedup applies the block independently to contiguous
// row segments (lens) of a token sequence given in deduplicated form (see
// DedupRowsIn), with gradients: uniq holds the distinct token rows and idx
// maps each expanded row to its representative. Q/K/V run once per
// distinct row and are gathered back with gradient-aware GatherRows, so
// training on batches whose tokens repeat heavily — TLP's near-constant
// one-hots, PaCM's zero-padded dataflow rows — skips most projection work
// in the forward and the backward both. The projections and the residual
// layer norm are row-wise and run batched across all segments; the score
// products and softmax, the only row-mixing parts, are the attention core,
// one tape node (attend). Each segment's output is bitwise identical to
// the block over that segment alone: projections, scaled scores, softmax,
// value mix, output projection, residual and layer norm, kept as plain
// loops in the test suite. A forward with no gradient-carrying operand
// (inference) adds its segment count to the engine counters.
func (a *SelfAttention) ForwardSegmentsDedup(uniq *Tensor, idx []int, lens []int) *Tensor {
	x := GatherRows(uniq, idx)
	q := GatherRows(a.Q.Forward(uniq), idx)
	k := GatherRows(a.K.Forward(uniq), idx)
	v := GatherRows(a.V.Forward(uniq), idx)
	core := attend(q, k, v, lens, a.scale())
	if !core.requiresGrad {
		engineAttnSegments.Add(uint64(len(lens)))
	}
	return a.Norm.Forward(Add(x, a.O.Forward(core)))
}

// scale is the score scale 1/√dim.
func (a *SelfAttention) scale() float64 { return 1 / math.Sqrt(float64(a.dim)) }

// Params implements Module.
func (a *SelfAttention) Params() []*Tensor {
	var ps []*Tensor
	for _, m := range []Module{a.Q, a.K, a.V, a.O, a.Norm} {
		ps = append(ps, m.Params()...)
	}
	return ps
}
