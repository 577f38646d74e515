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

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randParam(rng, 3, 4)
	b := randParam(rng, 4, 2)
	checkGrads(t, "matmul", []*Tensor{a, b}, func() *Tensor {
		return MeanAll(Mul(MatMul(a, b), MatMul(a, b)))
	})
}

func TestGradAddBias(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randParam(rng, 3, 5)
	b := randParam(rng, 1, 5)
	checkGrads(t, "addbias", []*Tensor{x, b}, func() *Tensor {
		return MeanAll(Mul(AddBias(x, b), AddBias(x, b)))
	})
}

func TestGradActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name string
		f    func(*Tensor) *Tensor
	}{
		{"relu", ReLU},
		{"tanh", Tanh},
	} {
		x := randParam(rng, 4, 3)
		// Shift away from the ReLU kink for stable numeric grads.
		for i := range x.Data {
			if math.Abs(x.Data[i]) < 1e-2 {
				x.Data[i] += 0.1
			}
		}
		checkGrads(t, tc.name, []*Tensor{x}, func() *Tensor {
			y := tc.f(x)
			return MeanAll(Mul(y, y))
		})
	}
}

func TestGradSoftmaxRows(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randParam(rng, 3, 5)
	w := randParam(rng, 3, 5)
	checkGrads(t, "softmax", []*Tensor{x}, func() *Tensor {
		return MeanAll(Mul(SoftmaxRows(x), w))
	})
}

func TestGradTransposeConcatSum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randParam(rng, 3, 2)
	b := randParam(rng, 3, 4)
	checkGrads(t, "transpose+concat+sum", []*Tensor{a, b}, func() *Tensor {
		c := ConcatCols(a, b) // 3x6
		ct := Transpose(c)    // 6x3
		s := SumRows(ct)      // 1x3
		return MeanAll(Mul(s, s))
	})
}

func TestGradConcatRows(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randParam(rng, 2, 3)
	b := randParam(rng, 1, 3)
	checkGrads(t, "concatrows", []*Tensor{a, b}, func() *Tensor {
		c := ConcatRows(a, b)
		return MeanAll(Mul(c, c))
	})
}

func TestGradLayerNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randParam(rng, 3, 6)
	g := randParam(rng, 1, 6)
	b := randParam(rng, 1, 6)
	checkGrads(t, "layernorm", []*Tensor{x, g, b}, func() *Tensor {
		y := LayerNormRows(x, g, b)
		return MeanAll(Mul(y, y))
	})
}

func TestGradSelfAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	attn := NewSelfAttention(rng, 4)
	x := randParam(rng, 3, 4)
	params := append([]*Tensor{x}, attn.Params()...)
	checkGrads(t, "selfattention", params, func() *Tensor {
		y := attn.Forward(x)
		return MeanAll(Mul(y, y))
	})
}

func TestGradScaleSubAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randParam(rng, 2, 2)
	b := randParam(rng, 2, 2)
	checkGrads(t, "scale/sub/add", []*Tensor{a, b}, func() *Tensor {
		return MeanAll(Mul(Add(Scale(a, 1.7), Sub(a, b)), b))
	})
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := randParam(rng, 5, 7)
	y := SoftmaxRows(x)
	for i := 0; i < y.R; i++ {
		var sum float64
		for j := 0; j < y.C; j++ {
			v := y.At(i, j)
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
	y := MatMul(x, w)
	if y.requiresGrad || y.node.op != opNone {
		t.Fatal("frozen-parameter output should not carry graph state")
	}
	restore()
	y = MatMul(x, w)
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
		{"matmul", func() { MatMul(a, b) }},
		{"addbias", func() { AddBias(a, New(1, 2)) }},
		{"mul", func() { Mul(a, New(3, 2)) }},
		{"concatrows", func() { ConcatRows(a, New(2, 4)) }},
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
	// loss = (x + x)^2 => dloss/dx = 8x
	loss := MeanAll(Mul(Add(x, x), Add(x, x)))
	Backward(loss)
	want := 8 * x.Data[0]
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
	arenaNode := MatMul(onArena(&s, FromVec([]float64{1, 2, 3})), w)
	heapNode := MatMul(FromRows([][]float64{{3, 2, 1}}), w)
	defer func() {
		if recover() == nil {
			t.Fatal("an operator over an arena node and a heap node must panic")
		}
	}()
	Add(arenaNode, heapNode)
}
