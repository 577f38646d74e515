package nn

import (
	"math"
	"math/rand"
	"testing"
)

// numericGrad estimates d(loss)/d(x[idx]) by central differences, where
// loss is rebuilt from scratch by fn.
func numericGrad(x *Tensor, idx int, fn func() *Tensor) float64 {
	const h = 1e-5
	orig := x.Data[idx]
	x.Data[idx] = orig + h
	lp := fn().Data[0]
	x.Data[idx] = orig - h
	lm := fn().Data[0]
	x.Data[idx] = orig
	return (lp - lm) / (2 * h)
}

// checkGrads verifies analytic gradients of loss w.r.t. every param entry.
func checkGrads(t *testing.T, name string, params []*Tensor, fn func() *Tensor) {
	t.Helper()
	for _, p := range params {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
	loss := fn()
	Backward(loss)
	for pi, p := range params {
		for i := range p.Data {
			want := numericGrad(p, i, fn)
			got := p.Grad[i]
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Errorf("%s: param %d entry %d: grad %g want %g", name, pi, i, got, want)
				return
			}
		}
	}
}

func randParam(rng *rand.Rand, r, c int) *Tensor {
	p := Param(rng, r, c)
	for i := range p.Data {
		p.Data[i] = rng.NormFloat64()
	}
	return p
}

// lossNode records value as a 1x1 scalar on y's tape: the node
// LambdaRankLoss records, whose gradient w.r.t. y is saved/k, with k =
// R·C. The test losses are built on it.
func lossNode(y *Tensor, value float64, saved []float64) *Tensor {
	s, grad := opArena(y, nil, nil)
	out := s.tensor(1, 1)
	out.Data[0] = value
	return out.link(grad, node{op: opLambdaRank, a: y, saved: saved, k: float64(y.R * y.C)})
}

// weightedMean is the test loss mean(y ∘ w) for a constant w: its value
// sums in ascending order and divides once, and its gradient into y is
// (1/k)·w_i — the bits a mean-of-product operator chain gives.
func weightedMean(y *Tensor, w []float64) *Tensor {
	var sum float64
	for i, v := range y.Data {
		sum += v * w[i]
	}
	return lossNode(y, sum/float64(y.R*y.C), w)
}

// TestGradMatMul finite-difference-checks the contraction alone: Affine
// with a constant zero bias, so only the two gradient GEMMs run.
func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randParam(rng, 3, 4)
	b := randParam(rng, 4, 2)
	w := randConst(rng, 3, 2).Data
	checkGrads(t, "matmul", []*Tensor{a, b}, func() *Tensor {
		return weightedMean(Affine(a, b, New(1, 2), false), w)
	})
}

// TestGradAddBias finite-difference-checks the bias column sum with the
// weights held constant.
func TestGradAddBias(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randParam(rng, 3, 5)
	b := randParam(rng, 1, 5)
	eye := New(5, 5)
	for i := 0; i < 5; i++ {
		eye.Set(i, i, 1)
	}
	w := randConst(rng, 3, 5).Data
	checkGrads(t, "addbias", []*Tensor{x, b}, func() *Tensor {
		return weightedMean(Affine(x, eye, b, false), w)
	})
}

// TestGradActivations finite-difference-checks the one standalone
// activation, Tanh; ReLU exists only fused into Affine (TestGradAffine).
func TestGradActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randParam(rng, 4, 3)
	w := randConst(rng, 4, 3).Data
	checkGrads(t, "tanh", []*Tensor{x}, func() *Tensor {
		return weightedMean(Tanh(x), w)
	})
}

// TestGradSoftmaxRows finite-difference-checks the softmax backward
// inside the attention core: only the queries carry gradients, so every
// gradient reaches them through the scores' softmax.
func TestGradSoftmaxRows(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q := randParam(rng, 5, 3)
	k, v := randConst(rng, 5, 3), randConst(rng, 5, 3)
	w := randConst(rng, 5, 3).Data
	checkGrads(t, "softmax", []*Tensor{q}, func() *Tensor {
		return weightedMean(attend(q, k, v, []int{3, 2}, 0.7), w)
	})
}

// TestGradConcatColsSegmentSum finite-difference-checks ConcatCols
// feeding a segment sum.
func TestGradConcatColsSegmentSum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randParam(rng, 3, 2)
	b := randParam(rng, 3, 4)
	w := randConst(rng, 2, 6).Data
	checkGrads(t, "concat+segmentsum", []*Tensor{a, b}, func() *Tensor {
		return weightedMean(SegmentSumRows(ConcatCols(a, b), []int{2, 1}), w)
	})
}

func TestGradLayerNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randParam(rng, 3, 6)
	g := randParam(rng, 1, 6)
	b := randParam(rng, 1, 6)
	w := randConst(rng, 3, 6).Data
	checkGrads(t, "layernorm", []*Tensor{x, g, b}, func() *Tensor {
		return weightedMean(LayerNormRows(x, g, b), w)
	})
}

// TestGradSelfAttention finite-difference-checks the whole attention
// block — Q/K/V/O projections, the attention core, the residual and the
// layer norm — over two segments.
func TestGradSelfAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	attn := NewSelfAttention(rng, 4)
	x := randParam(rng, 5, 4)
	w := randConst(rng, 5, 4).Data
	params := append([]*Tensor{x}, attn.Params()...)
	checkGrads(t, "selfattention", params, func() *Tensor {
		return weightedMean(attn.ForwardSegmentsDedup(x, identityInts(nil, x.R), []int{3, 2}), w)
	})
}

// TestSoftmaxRowsSumToOne checks the softmax kernel: every row lands in
// [0, 1] and sums to one.
func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	y := randParam(rng, 5, 7)
	for i := 0; i < y.R; i++ {
		row := y.Data[i*y.C : (i+1)*y.C]
		softmaxRow(row)
		var sum float64
		for _, v := range row {
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %g", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %g", i, sum)
		}
	}
}

func TestFreezeParamsBuildsNoGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w := Param(rng, 2, 2)
	x := New(1, 2)
	x.Data[0], x.Data[1] = 1, 2
	restore := FreezeParams([]*Tensor{w})
	y := Affine(x, w, New(1, 2), false)
	if y.requiresGrad || y.node.op != opNone {
		t.Fatal("frozen-parameter output should not carry graph state")
	}
	restore()
	y = Affine(x, w, New(1, 2), false)
	if !y.requiresGrad {
		t.Fatal("restore must re-enable graph construction")
	}
}

func TestBackwardScalarOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	w := Param(rng, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Backward on a non-scalar should panic")
		}
	}()
	Backward(w)
}

func TestShapePanics(t *testing.T) {
	a := New(2, 3)
	b := New(2, 3)
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"affine", func() { Affine(a, b, New(1, 3), false) }},
		{"affine bias", func() { Affine(a, New(3, 2), New(1, 3), false) }},
		{"add", func() { Add(a, New(3, 2)) }},
		{"concatcols", func() { ConcatCols(a, New(3, 4)) }},
		{"new", func() { New(0, 1) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.f()
		}()
	}
}

func TestGradAccumulationAcrossUses(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := randParam(rng, 1, 1)
	// loss = ((x + x) + x)·c => dloss/dx = 3c
	c := 0.75
	loss := weightedMean(Add(Add(x, x), x), []float64{c})
	Backward(loss)
	want := 3 * c
	if math.Abs(x.Grad[0]-want) > 1e-9 {
		t.Fatalf("grad %g want %g", x.Grad[0], want)
	}
}

// TestOperandsOnTwoArenasPanic pins the tape's one merge rule: graphs
// built from heap operands concatenate when they meet, but an arena
// graph never merges with another graph — its nodes die at the arena's
// Reset, so an operator over both must fail loudly.
func TestOperandsOnTwoArenasPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	w := randParam(rng, 3, 3)
	var s Scratch
	arenaNode := Affine(onArena(&s, FromRows([][]float64{{1, 2, 3}})), w, New(1, 3), false)
	heapNode := Affine(FromRows([][]float64{{3, 2, 1}}), w, New(1, 3), false)
	defer func() {
		if recover() == nil {
			t.Fatal("an operator over an arena node and a heap node must panic")
		}
	}()
	Add(arenaNode, heapNode)
}
