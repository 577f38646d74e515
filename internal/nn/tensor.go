// Package nn is a small, dependency-free neural-network stack: a
// tape-based reverse-mode autograd over dense float64 matrices, the layers
// needed by the paper's cost models (linear, layer-norm, self-attention),
// the Adam optimiser, and the LambdaRank training loss.
//
// It exists because the paper's cost models are PyTorch modules and this
// reproduction is stdlib-only. The stack is deliberately simple —
// matrices not tensors, training single-goroutine, inference concurrent
// over frozen parameters (FreezeParams) — and carries only what the cost
// models run. The tape has ten op kinds: the leaf, Affine, Add, Tanh,
// ConcatCols, GatherRows, the segment sum/mean, LayerNormRows, the
// attention core and the LambdaRank loss. It is exact: every operator has
// an analytic backward verified by finite differences in the test suite.
//
// An operator's output becomes a tape node — gradient buffer and a record
// of the op and its operands (tape.go) — only when some operand requires
// gradients. Its storage comes from the operands' arena (a Scratch; nil
// means heap), so a forward whose input is built on s (the rows ops
// Linear.ForwardRows and MLP.ForwardReLURows) draws every output,
// gradient and backward temporary from s, and Backward walks the nodes s
// recorded in reverse. Under FreezeParams no operand requires gradients,
// so the same forward records nothing at all: the cost models' one
// forward (infer.go) serves training and batched inference alike.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major matrix participating in the autograd graph.
// Tensors produced by operators on gradient-carrying operands are tape
// nodes that propagate gradients to their operands; leaf tensors created
// with Param accumulate gradients for the optimiser.
type Tensor struct {
	R, C int
	Data []float64
	Grad []float64

	requiresGrad bool
	// arena is where Data (and a node's Grad) live; nil = heap.
	// Parameters never carry one.
	arena *Scratch
	// node records how a tape node was made; zero on leaves and
	// constants.
	node node
}

// New returns a zero-filled (r x c) tensor that does not require
// gradients.
func New(r, c int) *Tensor {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("nn: invalid tensor shape %dx%d", r, c))
	}
	return &Tensor{R: r, C: c, Data: make([]float64, r*c)}
}

// FromRows builds a constant tensor from row slices (all equal length).
func FromRows(rows [][]float64) *Tensor {
	if len(rows) == 0 {
		panic("nn: FromRows with no rows")
	}
	t := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != t.C {
			panic(fmt.Sprintf("nn: ragged rows %d vs %d", len(r), t.C))
		}
		copy(t.Data[i*t.C:(i+1)*t.C], r)
	}
	return t
}

// Param returns a trainable (r x c) tensor initialised with scaled
// Gaussian (Xavier) noise.
func Param(rng *rand.Rand, r, c int) *Tensor {
	t := New(r, c)
	scale := math.Sqrt(2.0 / float64(r+c))
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * scale
	}
	t.requiresGrad = true
	t.Grad = make([]float64, r*c)
	return t
}

// ZeroParam returns a trainable zero-initialised tensor (biases).
func ZeroParam(r, c int) *Tensor {
	t := New(r, c)
	t.requiresGrad = true
	t.Grad = make([]float64, r*c)
	return t
}

// At returns element (i, j).
func (t *Tensor) At(i, j int) float64 { return t.Data[i*t.C+j] }

// Set assigns element (i, j).
func (t *Tensor) Set(i, j int, v float64) { t.Data[i*t.C+j] = v }

// Clone copies the values into a fresh constant tensor.
func (t *Tensor) Clone() *Tensor {
	c := New(t.R, t.C)
	copy(c.Data, t.Data)
	return c
}

// FreezeParams disables gradient-graph construction through the given
// parameters — inference mode — and returns a restore function for their
// previous state. Freezing is scoped to one model's own parameters, so
// one tuning session's inference cannot suppress another session's
// concurrent training forward. Toggle and restore must happen on the
// serial path; concurrent readers between the two calls are safe.
func FreezeParams(params []*Tensor) (restore func()) {
	prev := make([]bool, len(params))
	for i, p := range params {
		prev[i] = p.requiresGrad
		p.requiresGrad = false
	}
	return func() {
		for i, p := range params {
			p.requiresGrad = prev[i]
		}
	}
}

// addGrad accumulates into a parent's gradient if it participates.
func addGrad(p *Tensor, idx int, v float64) {
	if p.requiresGrad {
		p.Grad[idx] += v
	}
}

// ---------------------------------------------------------------------------
// Operators. Each draws its output from the operands' arena (opArena),
// computes the forward, and links the output onto the tape when an operand
// carries gradients; the backwards live in tape.go.

// Add returns the elementwise sum of equal-shaped tensors.
func Add(a, b *Tensor) *Tensor {
	if a.R != b.R || a.C != b.C {
		panic(fmt.Sprintf("nn: add shape mismatch %dx%d vs %dx%d", a.R, a.C, b.R, b.C))
	}
	s, grad := opArena(a, b, nil)
	out := s.tensor(a.R, a.C)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out.link(grad, node{op: opAdd, a: a, b: b})
}

// Tanh applies the hyperbolic tangent.
func Tanh(x *Tensor) *Tensor {
	s, grad := opArena(x, nil, nil)
	return tanhIn(s, x).link(grad, node{op: opTanh, a: x})
}

// ConcatCols concatenates equal-row tensors side by side.
func ConcatCols(a, b *Tensor) *Tensor {
	s, grad := opArena(a, b, nil)
	return concatColsIn(s, a, b).link(grad, node{op: opConcatCols, a: a, b: b})
}

// SegmentSumRows sums contiguous row segments of x (segmentSumRowsIn):
// lens[sg] rows form segment sg, and the backward hands each segment's
// output-row gradient to every row of the segment.
func SegmentSumRows(x *Tensor, lens []int) *Tensor {
	s, grad := opArena(x, nil, nil)
	return segmentSumRowsIn(s, x, lens).link(grad, node{op: opSegmentRows, a: x, ints: lens})
}

// SegmentMeanRows averages contiguous row segments of x
// (segmentMeanRowsIn): the backward hands each segment's output-row
// gradient, times the reciprocal length, to every row of the segment.
func SegmentMeanRows(x *Tensor, lens []int) *Tensor {
	s, grad := opArena(x, nil, nil)
	return segmentMeanRowsIn(s, x, lens).link(grad, node{op: opSegmentRows, a: x, ints: lens, flag: true})
}

// LayerNormRows normalises each row to zero mean / unit variance and
// applies the learned gain g and bias b (both 1 x C). On the tape the
// normalised values and inverse stds the backward reads are kept on the
// arena; an inference forward keeps neither.
func LayerNormRows(x, g, b *Tensor) *Tensor {
	s, grad := opArena(x, g, b)
	var saved []float64
	if grad {
		saved = s.floats(x.R*x.C + x.R)
	}
	return layerNormRowsIn(s, x, g, b, saved).link(grad, node{op: opLayerNorm, a: x, b: g, c: b, saved: saved})
}
