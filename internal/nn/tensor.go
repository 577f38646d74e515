// Package nn is a small, dependency-free neural-network stack: a
// tape-based reverse-mode autograd over dense float64 matrices, the layers
// needed by the paper's cost models (linear, layer-norm, self-attention),
// the Adam optimiser, and the MSE and LambdaRank training losses.
//
// It exists because the paper's cost models are PyTorch modules and this
// reproduction is stdlib-only. The stack is deliberately simple —
// matrices not tensors, training single-goroutine, inference concurrent
// over frozen parameters (FreezeParams) — but exact: every operator has
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

// FromVec builds a 1 x len(v) constant tensor.
func FromVec(v []float64) *Tensor {
	t := New(1, len(v))
	copy(t.Data, v)
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
// previous state. It replaces the earlier process-global NoGrad counter:
// that gate let one tuning session's inference silently suppress another
// session's concurrent training forward, whereas freezing is scoped to
// one model's own parameters. Toggle and restore must happen on the
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

// MatMul returns a @ b.
func MatMul(a, b *Tensor) *Tensor {
	if a.C != b.R {
		panic(fmt.Sprintf("nn: matmul %dx%d @ %dx%d", a.R, a.C, b.R, b.C))
	}
	s, grad := opArena(a, b, nil)
	out := s.tensor(a.R, b.C)
	for i := 0; i < a.R; i++ {
		oRow := out.Data[i*out.C : (i+1)*out.C]
		for k := 0; k < a.C; k++ {
			av := a.Data[i*a.C+k]
			if av == 0 {
				continue
			}
			bRow := b.Data[k*b.C : (k+1)*b.C]
			for j, bv := range bRow {
				oRow[j] += av * bv
			}
		}
	}
	return out.link(grad, node{op: opMatMul, a: a, b: b})
}

// AddBias adds a 1 x C bias row to every row of x.
func AddBias(x, b *Tensor) *Tensor {
	if b.R != 1 || b.C != x.C {
		panic(fmt.Sprintf("nn: addbias %dx%d + %dx%d", x.R, x.C, b.R, b.C))
	}
	s, grad := opArena(x, b, nil)
	out := s.tensor(x.R, x.C)
	for i := 0; i < x.R; i++ {
		for j := 0; j < x.C; j++ {
			out.Data[i*x.C+j] = x.Data[i*x.C+j] + b.Data[j]
		}
	}
	return out.link(grad, node{op: opAddBias, a: x, b: b})
}

// Add returns the elementwise sum of equal-shaped tensors.
func Add(a, b *Tensor) *Tensor {
	shapeCheck("add", a, b)
	s, grad := opArena(a, b, nil)
	out := s.tensor(a.R, a.C)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out.link(grad, node{op: opAdd, a: a, b: b})
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	shapeCheck("sub", a, b)
	s, grad := opArena(a, b, nil)
	out := s.tensor(a.R, a.C)
	for i := range out.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out.link(grad, node{op: opSub, a: a, b: b})
}

// Mul returns the elementwise product.
func Mul(a, b *Tensor) *Tensor {
	shapeCheck("mul", a, b)
	s, grad := opArena(a, b, nil)
	out := s.tensor(a.R, a.C)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out.link(grad, node{op: opMul, a: a, b: b})
}

// Scale multiplies by a constant.
func Scale(x *Tensor, k float64) *Tensor {
	s, grad := opArena(x, nil, nil)
	out := s.tensor(x.R, x.C)
	for i := range out.Data {
		out.Data[i] = x.Data[i] * k
	}
	return out.link(grad, node{op: opScale, a: x, k: k})
}

// ReLU applies max(0, x).
func ReLU(x *Tensor) *Tensor {
	s, grad := opArena(x, nil, nil)
	out := s.tensor(x.R, x.C)
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	return out.link(grad, node{op: opReLU, a: x})
}

// Tanh applies the hyperbolic tangent.
func Tanh(x *Tensor) *Tensor {
	s, grad := opArena(x, nil, nil)
	return tanhIn(s, x).link(grad, node{op: opTanh, a: x})
}

// SoftmaxRows applies softmax independently to each row.
func SoftmaxRows(x *Tensor) *Tensor {
	s, grad := opArena(x, nil, nil)
	out := s.tensor(x.R, x.C)
	for i := 0; i < x.R; i++ {
		orow := out.Data[i*x.C : (i+1)*x.C]
		copy(orow, x.Data[i*x.C:(i+1)*x.C])
		softmaxRow(orow)
	}
	return out.link(grad, node{op: opSoftmaxRows, a: x})
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

// Transpose returns x^T.
func Transpose(x *Tensor) *Tensor {
	s, grad := opArena(x, nil, nil)
	out := s.tensor(x.C, x.R)
	for i := 0; i < x.R; i++ {
		for j := 0; j < x.C; j++ {
			out.Data[j*x.R+i] = x.Data[i*x.C+j]
		}
	}
	return out.link(grad, node{op: opTranspose, a: x})
}

// ConcatCols concatenates equal-row tensors side by side.
func ConcatCols(a, b *Tensor) *Tensor {
	s, grad := opArena(a, b, nil)
	return concatColsIn(s, a, b).link(grad, node{op: opConcatCols, a: a, b: b})
}

// ConcatRows stacks equal-width tensors vertically.
func ConcatRows(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("nn: ConcatRows of nothing")
	}
	cols := ts[0].C
	rows := 0
	var s *Scratch
	grad := false
	for _, t := range ts {
		if t.C != cols {
			panic(fmt.Sprintf("nn: ConcatRows width mismatch %d vs %d", t.C, cols))
		}
		rows += t.R
		s = join(s, t)
		grad = grad || t.requiresGrad
	}
	s = tapeArena(s, grad)
	out := s.tensor(rows, cols)
	off := 0
	for _, t := range ts {
		copy(out.Data[off:off+t.R*t.C], t.Data)
		off += t.R * t.C
	}
	return out.link(grad, node{op: opConcatRows, list: ts})
}

// SliceRows returns rows [lo, hi) of x as a fresh tensor, with gradients
// scattered back to the sliced rows: the gather of the contiguous index
// range.
func SliceRows(x *Tensor, lo, hi int) *Tensor {
	if lo < 0 || hi > x.R || lo >= hi {
		panic(fmt.Sprintf("nn: SliceRows [%d,%d) of %d rows", lo, hi, x.R))
	}
	idx := x.arena.Ints(hi - lo)
	for i := range idx {
		idx[i] = lo + i
	}
	return GatherRows(x, idx)
}

// SumRows sums over rows, producing a 1 x C tensor.
func SumRows(x *Tensor) *Tensor {
	s, grad := opArena(x, nil, nil)
	out := s.tensor(1, x.C)
	for i := 0; i < x.R; i++ {
		for j := 0; j < x.C; j++ {
			out.Data[j] += x.Data[i*x.C+j]
		}
	}
	return out.link(grad, node{op: opSumRows, a: x})
}

// MeanRows averages over rows, producing a 1 x C tensor.
func MeanRows(x *Tensor) *Tensor {
	return Scale(SumRows(x), 1/float64(x.R))
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

// MeanAll reduces to the scalar mean of all entries.
func MeanAll(x *Tensor) *Tensor {
	s, grad := opArena(x, nil, nil)
	out := s.tensor(1, 1)
	var sum float64
	for _, v := range x.Data {
		sum += v
	}
	out.Data[0] = sum / float64(x.R*x.C)
	return out.link(grad, node{op: opMeanAll, a: x})
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

func shapeCheck(op string, a, b *Tensor) {
	if a.R != b.R || a.C != b.C {
		panic(fmt.Sprintf("nn: %s shape mismatch %dx%d vs %dx%d", op, a.R, a.C, b.R, b.C))
	}
}
