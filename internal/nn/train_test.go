package nn

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// mseLoss is mean((y − target)²) for a constant target, as a scalar node
// whose gradient into y is 2(y − target)/k (lossNode).
func mseLoss(y, target *Tensor) *Tensor {
	var sum float64
	saved := make([]float64, len(y.Data))
	for i, v := range y.Data {
		d := v - target.Data[i]
		sum += d * d
		saved[i] = 2 * d
	}
	return lossNode(y, sum/float64(len(y.Data)), saved)
}

// TestMLPRegression trains a small MLP on a smooth function and checks the
// loss collapses — the full forward/backward/Adam loop.
func TestMLPRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP(rng, 2, 16, 1)
	adam := NewAdam(m.Params(), 1e-2)

	sample := func() (*Tensor, *Tensor) {
		x := New(16, 2)
		y := New(16, 1)
		for i := 0; i < 16; i++ {
			a, b := rng.Float64()*2-1, rng.Float64()*2-1
			x.Set(i, 0, a)
			x.Set(i, 1, b)
			y.Set(i, 0, a*b+0.5*a)
		}
		return x, y
	}
	var first, last float64
	for step := 0; step < 300; step++ {
		x, y := sample()
		adam.ZeroGrad()
		loss := mseLoss(m.Forward(x), y)
		Backward(loss)
		adam.Step()
		if step == 0 {
			first = loss.Data[0]
		}
		last = loss.Data[0]
	}
	if last > first/5 {
		t.Fatalf("loss did not converge: first %g last %g", first, last)
	}
}

// TestLambdaRankImprovesOrdering trains scores to match a known ranking.
func TestLambdaRankImprovesOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 12
	feats := New(n, 4)
	rel := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 4; j++ {
			feats.Set(i, j, rng.NormFloat64())
		}
		// True relevance depends on two features.
		rel[i] = 1 / (1 + math.Exp(-(feats.At(i, 0)*2 - feats.At(i, 2))))
	}
	m := NewMLP(rng, 4, 16, 1)
	adam := NewAdam(m.Params(), 5e-3)
	kendall := func() float64 {
		restore := FreezeParams(m.Params())
		scores := m.Forward(feats)
		restore()
		var agree, total float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rel[i] == rel[j] {
					continue
				}
				total++
				if (rel[i] > rel[j]) == (scores.At(i, 0) > scores.At(j, 0)) {
					agree++
				}
			}
		}
		return agree / total
	}
	before := kendall()
	for step := 0; step < 200; step++ {
		adam.ZeroGrad()
		loss := LambdaRankLoss(m.Forward(feats), rel)
		Backward(loss)
		adam.Step()
	}
	after := kendall()
	if after < 0.95 {
		t.Fatalf("ranking accuracy %g -> %g; want >= 0.95", before, after)
	}
}

// TestLambdaRankGradCheck verifies the custom backward against finite
// differences of the loss value.
func TestLambdaRankGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	scores := Param(rng, 6, 1)
	rel := []float64{0.9, 0.1, 0.5, 0.7, 0.2, 1.0}
	fn := func() *Tensor { return LambdaRankLoss(scores, rel) }
	loss := fn()
	Backward(loss)
	for i := range scores.Data {
		// The |ΔNDCG| weights change discontinuously with rank order;
		// perturb well below typical score gaps.
		const h = 1e-7
		orig := scores.Data[i]
		scores.Data[i] = orig + h
		lp := fn().Data[0]
		scores.Data[i] = orig - h
		lm := fn().Data[0]
		scores.Data[i] = orig
		want := (lp - lm) / (2 * h)
		if math.Abs(scores.Grad[i]-want) > 1e-3*(1+math.Abs(want)) {
			t.Fatalf("entry %d: grad %g want %g", i, scores.Grad[i], want)
		}
	}
}

// TestRankSortsMatchSortSlice compares LambdaRankLoss's orderings with the
// sort.Slice calls they replaced, on random key vectors drawn from a
// five-value alphabet (so nearly every comparison is a tie, and the tie
// order is what the sort decides): the same permutation at every length,
// from insertion-sort sizes through pdqsort's partitions.
func TestRankSortsMatchSortSlice(t *testing.T) {
	alphabet := []float64{-1, 0, 0.25, 0.5, 1}
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(300)
		key := make([]float64, n)
		for i := range key {
			key[i] = alphabet[rng.Intn(len(alphabet))]
		}
		ref := identityInts(nil, n)
		sort.Slice(ref, func(a, b int) bool { return key[ref[a]] > key[ref[b]] })
		got := identityInts(nil, n)
		slices.SortFunc(got, descending(key).cmp)
		if !slices.Equal(got, ref) {
			t.Fatalf("trial %d (n=%d): slices.SortFunc order differs from sort.Slice", trial, n)
		}
	}
}

func TestLambdaRankDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// A single item: loss +0 and a +0 score gradient, whatever the
	// score's sign — pinned by bits, so ±0 cannot drift.
	var vals [][]float64
	for _, sign := range []float64{1, -1} {
		one := Param(rng, 1, 1)
		one.Data[0] = sign * math.Abs(one.Data[0])
		l := LambdaRankLoss(one, []float64{1})
		if l.Data[0] != 0 {
			t.Fatalf("single-item loss should be 0, got %g", l.Data[0])
		}
		Backward(l)
		vals = append(vals, l.Data, one.Grad)
	}
	if got, want := digestFloats(vals...), "0c8210784d8af5a5"; got != want {
		t.Errorf("single-item loss+gradient digest %s, pinned %s", got, want)
	}
	two := Param(rng, 2, 1)
	if l := LambdaRankLoss(two, []float64{0.5, 0.5}); l.Data[0] != 0 {
		t.Fatalf("tied relevance loss should be 0, got %g", l.Data[0])
	}
}

// TestAdamClipsGradients checks the global-norm clip engages.
func TestAdamClipsGradients(t *testing.T) {
	p := ZeroParam(1, 2)
	adam := NewAdam([]*Tensor{p}, 0.1)
	adam.ClipNorm = 1
	p.Grad[0], p.Grad[1] = 300, 400 // norm 500
	if n := adam.GradNorm(); math.Abs(n-500) > 1e-9 {
		t.Fatalf("grad norm %g want 500", n)
	}
	adam.Step()
	// After clipping to norm 1 the first Adam step is ~ -lr * sign-ish;
	// both coordinates must move by less than lr * 2.
	for i, v := range p.Data {
		if math.Abs(v) > 0.2 {
			t.Fatalf("param %d moved %g: clipping failed", i, v)
		}
	}
}

func TestSaveLoadParamsRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := NewMLP(rng, 3, 8, 1)
	dst := NewMLP(rand.New(rand.NewSource(6)), 3, 8, 1)

	var buf bytes.Buffer
	if err := SaveParams(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&buf, dst.Params()); err != nil {
		t.Fatal(err)
	}
	for i, p := range src.Params() {
		q := dst.Params()[i]
		for j := range p.Data {
			if p.Data[j] != q.Data[j] {
				t.Fatalf("param %d entry %d differs after roundtrip", i, j)
			}
		}
	}
	// Shape mismatch must fail cleanly.
	var buf2 bytes.Buffer
	if err := SaveParams(&buf2, src.Params()); err != nil {
		t.Fatal(err)
	}
	other := NewMLP(rng, 3, 9, 1)
	if err := LoadParams(&buf2, other.Params()); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
}

func TestMomentumUpdate(t *testing.T) {
	s := ZeroParam(1, 2)
	tgt := ZeroParam(1, 2)
	s.Data[0], s.Data[1] = 1, 2
	tgt.Data[0], tgt.Data[1] = 3, 6
	MomentumUpdate([]*Tensor{s}, []*Tensor{tgt}, 0.5)
	if s.Data[0] != 2 || s.Data[1] != 4 {
		t.Fatalf("momentum update wrong: %v", s.Data)
	}
}

func TestCopyParams(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewMLP(rng, 2, 4, 1)
	b := NewMLP(rand.New(rand.NewSource(8)), 2, 4, 1)
	CopyParams(b.Params(), a.Params())
	for i, p := range a.Params() {
		q := b.Params()[i]
		for j := range p.Data {
			if p.Data[j] != q.Data[j] {
				t.Fatal("CopyParams did not copy values")
			}
		}
	}
}

// TestDeterministicForward: same seed, same inputs => identical outputs.
func TestDeterministicForward(t *testing.T) {
	build := func() []float64 {
		rng := rand.New(rand.NewSource(9))
		m := NewMLP(rng, 3, 8, 2)
		x := FromRows([][]float64{{0.5, -1, 2}, {1, 1, 1}})
		restore := FreezeParams(m.Params())
		y := m.Forward(x)
		restore()
		out := make([]float64, len(y.Data))
		copy(out, y.Data)
		return out
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("forward is not deterministic")
		}
	}
}

// TestRankGradientDirection: LambdaRank gradients push higher-relevance
// items up.
func TestRankGradientDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	scores := Param(rng, 3, 1)
	scores.Data = []float64{0, 0, 0}
	rel := []float64{1.0, 0.5, 0.0}
	loss := LambdaRankLoss(scores, rel)
	Backward(loss)
	// Gradient descent moves along -grad: the best item must rise.
	order := []int{0, 1, 2}
	sort.Slice(order, func(a, b int) bool { return -scores.Grad[order[a]] > -scores.Grad[order[b]] })
	if order[0] != 0 || order[2] != 2 {
		t.Fatalf("gradient direction wrong: %v", scores.Grad)
	}
}
