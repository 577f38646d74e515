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
// Operators attach their tape state (gradient buffer, backward closure,
// parent links) only when some parent requires gradients. Under
// FreezeParams nothing does, so the inference hot path allocates no tape
// at all — the no-tape forward the batched cost-model engine (infer.go)
// builds on.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major matrix participating in the autograd graph.
// Tensors produced by operators carry a closure that propagates gradients
// to their parents; leaf tensors created with Param accumulate gradients
// for the optimiser.
type Tensor struct {
	R, C int
	Data []float64
	Grad []float64

	requiresGrad bool
	back         func(*Scratch)
	prev         []*Tensor
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

// needsGrad marks an op output as gradient-carrying when any parent is.
func needsGrad(parents ...*Tensor) bool {
	for _, p := range parents {
		if p.requiresGrad {
			return true
		}
	}
	return false
}

// enableGrad links an op output into the tape: gradient buffer, backward
// closure, parent edges. Operators call it only when needsGrad reports a
// gradient-carrying parent, so inference forwards never allocate tape
// state — the closure literal itself lives inside the caller's if-block
// and is not even constructed.
func (t *Tensor) enableGrad(back func(*Scratch), parents ...*Tensor) {
	t.requiresGrad = true
	t.Grad = make([]float64, t.R*t.C)
	t.back = back
	t.prev = parents
}

// addGrad accumulates into a parent's gradient if it participates.
func addGrad(p *Tensor, idx int, v float64) {
	if p.requiresGrad {
		p.Grad[idx] += v
	}
}

// Backward runs reverse-mode differentiation from t, which must be a
// 1x1 loss tensor. Parameter gradients accumulate (call ZeroGrad between
// steps).
func Backward(t *Tensor) { BackwardIn(nil, t) }

// BackwardIn is Backward with every node's backward temporaries drawn
// from s (nil = heap, as in the *In kernels). The caller Resets s between
// passes; nothing a backward draws outlives the pass.
func BackwardIn(s *Scratch, t *Tensor) {
	if t.R != 1 || t.C != 1 {
		panic("nn: Backward expects a scalar loss")
	}
	if !t.requiresGrad {
		return
	}
	order := topoSort(t)
	t.Grad[0] = 1
	for i := len(order) - 1; i >= 0; i-- {
		if order[i].back != nil {
			order[i].back(s)
		}
	}
}

func topoSort(root *Tensor) []*Tensor {
	var order []*Tensor
	visited := map[*Tensor]bool{}
	var visit func(*Tensor)
	visit = func(n *Tensor) {
		if visited[n] {
			return
		}
		visited[n] = true
		for _, p := range n.prev {
			visit(p)
		}
		order = append(order, n)
	}
	visit(root)
	return order
}

// ---------------------------------------------------------------------------
// Operators.

// MatMul returns a @ b.
func MatMul(a, b *Tensor) *Tensor {
	if a.C != b.R {
		panic(fmt.Sprintf("nn: matmul %dx%d @ %dx%d", a.R, a.C, b.R, b.C))
	}
	out := New(a.R, b.C)
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
	if needsGrad(a, b) {
		out.enableGrad(func(*Scratch) {
			// dA = dOut @ B^T ; dB = A^T @ dOut — the training hot path
			// (roughly two thirds of a fit's wall-clock), register-blocked
			// four wide like the inference kernels. Each gradient element
			// still accumulates its terms in ascending contraction order
			// (chained v += for dB's i-blocks, the per-dot j loop for dA),
			// so blocked results are bitwise identical to the plain loops;
			// a blocked-in zero term contributes an exact ±0.0 for the
			// finite values training produces, matching the per-term
			// zero-skip it replaces.
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
		}, a, b)
	}
	return out
}

// AddBias adds a 1 x C bias row to every row of x.
func AddBias(x, b *Tensor) *Tensor {
	if b.R != 1 || b.C != x.C {
		panic(fmt.Sprintf("nn: addbias %dx%d + %dx%d", x.R, x.C, b.R, b.C))
	}
	out := New(x.R, x.C)
	for i := 0; i < x.R; i++ {
		for j := 0; j < x.C; j++ {
			out.Data[i*x.C+j] = x.Data[i*x.C+j] + b.Data[j]
		}
	}
	if needsGrad(x, b) {
		out.enableGrad(func(*Scratch) {
			for i := 0; i < x.R; i++ {
				for j := 0; j < x.C; j++ {
					g := out.Grad[i*x.C+j]
					addGrad(x, i*x.C+j, g)
					addGrad(b, j, g)
				}
			}
		}, x, b)
	}
	return out
}

// Add returns the elementwise sum of equal-shaped tensors.
func Add(a, b *Tensor) *Tensor {
	shapeCheck("add", a, b)
	out := New(a.R, a.C)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	if needsGrad(a, b) {
		out.enableGrad(func(*Scratch) {
			for i, g := range out.Grad {
				addGrad(a, i, g)
				addGrad(b, i, g)
			}
		}, a, b)
	}
	return out
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	shapeCheck("sub", a, b)
	out := New(a.R, a.C)
	for i := range out.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	if needsGrad(a, b) {
		out.enableGrad(func(*Scratch) {
			for i, g := range out.Grad {
				addGrad(a, i, g)
				addGrad(b, i, -g)
			}
		}, a, b)
	}
	return out
}

// Mul returns the elementwise product.
func Mul(a, b *Tensor) *Tensor {
	shapeCheck("mul", a, b)
	out := New(a.R, a.C)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	if needsGrad(a, b) {
		out.enableGrad(func(*Scratch) {
			for i, g := range out.Grad {
				addGrad(a, i, g*b.Data[i])
				addGrad(b, i, g*a.Data[i])
			}
		}, a, b)
	}
	return out
}

// Scale multiplies by a constant.
func Scale(x *Tensor, k float64) *Tensor {
	out := New(x.R, x.C)
	for i := range out.Data {
		out.Data[i] = x.Data[i] * k
	}
	if needsGrad(x) {
		out.enableGrad(func(*Scratch) {
			for i, g := range out.Grad {
				addGrad(x, i, g*k)
			}
		}, x)
	}
	return out
}

// ReLU applies max(0, x).
func ReLU(x *Tensor) *Tensor {
	out := New(x.R, x.C)
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	if needsGrad(x) {
		out.enableGrad(func(*Scratch) {
			for i, g := range out.Grad {
				if x.Data[i] > 0 {
					addGrad(x, i, g)
				}
			}
		}, x)
	}
	return out
}

// Tanh applies the hyperbolic tangent.
func Tanh(x *Tensor) *Tensor {
	out := TanhIn(nil, x)
	if needsGrad(x) {
		out.enableGrad(func(*Scratch) {
			for i, g := range out.Grad {
				y := out.Data[i]
				addGrad(x, i, g*(1-y*y))
			}
		}, x)
	}
	return out
}

// SoftmaxRows applies softmax independently to each row.
func SoftmaxRows(x *Tensor) *Tensor {
	out := New(x.R, x.C)
	for i := 0; i < x.R; i++ {
		row := x.Data[i*x.C : (i+1)*x.C]
		m := math.Inf(-1)
		for _, v := range row {
			m = math.Max(m, v)
		}
		var sum float64
		orow := out.Data[i*x.C : (i+1)*x.C]
		for j, v := range row {
			e := math.Exp(v - m)
			orow[j] = e
			sum += e
		}
		for j := range orow {
			orow[j] /= sum
		}
	}
	if needsGrad(x) {
		out.enableGrad(func(*Scratch) {
			for i := 0; i < x.R; i++ {
				row := out.Data[i*x.C : (i+1)*x.C]
				grow := out.Grad[i*x.C : (i+1)*x.C]
				var dot float64
				for j := range row {
					dot += grow[j] * row[j]
				}
				for j := range row {
					addGrad(x, i*x.C+j, row[j]*(grow[j]-dot))
				}
			}
		}, x)
	}
	return out
}

// Transpose returns x^T.
func Transpose(x *Tensor) *Tensor {
	out := New(x.C, x.R)
	for i := 0; i < x.R; i++ {
		for j := 0; j < x.C; j++ {
			out.Data[j*x.R+i] = x.Data[i*x.C+j]
		}
	}
	if needsGrad(x) {
		out.enableGrad(func(*Scratch) {
			for i := 0; i < x.R; i++ {
				for j := 0; j < x.C; j++ {
					addGrad(x, i*x.C+j, out.Grad[j*x.R+i])
				}
			}
		}, x)
	}
	return out
}

// ConcatCols concatenates equal-row tensors side by side.
func ConcatCols(a, b *Tensor) *Tensor {
	out := ConcatColsIn(nil, a, b)
	if needsGrad(a, b) {
		cols := out.C
		out.enableGrad(func(*Scratch) {
			for i := 0; i < a.R; i++ {
				for j := 0; j < a.C; j++ {
					addGrad(a, i*a.C+j, out.Grad[i*cols+j])
				}
				for j := 0; j < b.C; j++ {
					addGrad(b, i*b.C+j, out.Grad[i*cols+a.C+j])
				}
			}
		}, a, b)
	}
	return out
}

// ConcatRows stacks equal-width tensors vertically.
func ConcatRows(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("nn: ConcatRows of nothing")
	}
	cols := ts[0].C
	rows := 0
	for _, t := range ts {
		if t.C != cols {
			panic(fmt.Sprintf("nn: ConcatRows width mismatch %d vs %d", t.C, cols))
		}
		rows += t.R
	}
	out := New(rows, cols)
	off := 0
	for _, t := range ts {
		copy(out.Data[off:off+t.R*t.C], t.Data)
		off += t.R * t.C
	}
	if needsGrad(ts...) {
		out.enableGrad(func(*Scratch) {
			off := 0
			for _, t := range ts {
				for i := 0; i < t.R*t.C; i++ {
					addGrad(t, i, out.Grad[off+i])
				}
				off += t.R * t.C
			}
		}, ts...)
	}
	return out
}

// SliceRows returns rows [lo, hi) of x as a fresh tensor, with gradients
// scattered back to the sliced rows: the batched training forwards
// project a whole group in one GEMM and slice per-segment copies out for
// the row-mixing attention core.
func SliceRows(x *Tensor, lo, hi int) *Tensor {
	if lo < 0 || hi > x.R || lo >= hi {
		panic(fmt.Sprintf("nn: SliceRows [%d,%d) of %d rows", lo, hi, x.R))
	}
	out := New(hi-lo, x.C)
	copy(out.Data, x.Data[lo*x.C:hi*x.C])
	if needsGrad(x) {
		out.enableGrad(func(*Scratch) {
			base := lo * x.C
			for i, g := range out.Grad {
				addGrad(x, base+i, g)
			}
		}, x)
	}
	return out
}

// SumRows sums over rows, producing a 1 x C tensor.
func SumRows(x *Tensor) *Tensor {
	out := New(1, x.C)
	for i := 0; i < x.R; i++ {
		for j := 0; j < x.C; j++ {
			out.Data[j] += x.Data[i*x.C+j]
		}
	}
	if needsGrad(x) {
		out.enableGrad(func(*Scratch) {
			for i := 0; i < x.R; i++ {
				for j := 0; j < x.C; j++ {
					addGrad(x, i*x.C+j, out.Grad[j])
				}
			}
		}, x)
	}
	return out
}

// MeanRows averages over rows, producing a 1 x C tensor.
func MeanRows(x *Tensor) *Tensor {
	return Scale(SumRows(x), 1/float64(x.R))
}

// SegmentSumRows is SegmentSumRowsIn on the tape: the backward hands each
// segment's output-row gradient to every row of the segment.
func SegmentSumRows(x *Tensor, lens []int) *Tensor {
	out := SegmentSumRowsIn(nil, x, lens)
	if needsGrad(x) {
		out.enableGrad(func(*Scratch) { segmentBackward(x, out, lens, false) }, x)
	}
	return out
}

// SegmentMeanRows is SegmentMeanRowsIn on the tape: the backward hands
// each segment's output-row gradient, times the reciprocal length, to
// every row of the segment.
func SegmentMeanRows(x *Tensor, lens []int) *Tensor {
	out := SegmentMeanRowsIn(nil, x, lens)
	if needsGrad(x) {
		out.enableGrad(func(*Scratch) { segmentBackward(x, out, lens, true) }, x)
	}
	return out
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

// MeanAll reduces to the scalar mean of all entries.
func MeanAll(x *Tensor) *Tensor {
	n := float64(x.R * x.C)
	out := New(1, 1)
	var sum float64
	for _, v := range x.Data {
		sum += v
	}
	out.Data[0] = sum / n
	if needsGrad(x) {
		out.enableGrad(func(*Scratch) {
			g := out.Grad[0] / n
			for i := range x.Data {
				addGrad(x, i, g)
			}
		}, x)
	}
	return out
}

// LayerNormRows normalises each row to zero mean / unit variance and
// applies the learned gain g and bias b (both 1 x C).
func LayerNormRows(x, g, b *Tensor) *Tensor {
	const eps = 1e-5
	if g.R != 1 || g.C != x.C || b.R != 1 || b.C != x.C {
		panic("nn: layernorm parameter shape mismatch")
	}
	n := float64(x.C)
	grad := needsGrad(x, g, b)
	// The normalised values and inverse stds are backward-only state;
	// inference forwards skip both allocations.
	var invStd, norm []float64
	if grad {
		invStd = make([]float64, x.R)
		norm = make([]float64, x.R*x.C)
	}
	out := New(x.R, x.C)
	for i := 0; i < x.R; i++ {
		var mu float64
		for j := 0; j < x.C; j++ {
			mu += x.Data[i*x.C+j]
		}
		mu /= n
		var v float64
		for j := 0; j < x.C; j++ {
			d := x.Data[i*x.C+j] - mu
			v += d * d
		}
		v /= n
		inv := 1 / math.Sqrt(v+eps)
		if grad {
			invStd[i] = inv
		}
		for j := 0; j < x.C; j++ {
			idx := i*x.C + j
			nv := (x.Data[idx] - mu) * inv
			if grad {
				norm[idx] = nv
			}
			out.Data[idx] = nv*g.Data[j] + b.Data[j]
		}
	}
	if grad {
		out.enableGrad(func(*Scratch) {
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
		}, x, g, b)
	}
	return out
}

func shapeCheck(op string, a, b *Tensor) {
	if a.R != b.R || a.C != b.C {
		panic(fmt.Sprintf("nn: %s shape mismatch %dx%d vs %dx%d", op, a.R, a.C, b.R, b.C))
	}
}
