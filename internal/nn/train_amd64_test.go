//go:build amd64 && !purego

package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// laneNaNs are two quiet NaNs of distinct payloads and signs: set on both
// sides of one element, they show which source an add or multiply took
// its NaN from.
var laneNaNs = [2]float64{math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff8000000000456)}

// laneOperands returns n values drawn half from adamEdge (±0,
// subnormals, ±Inf, NaNs of several payloads) and half Gaussian, with
// element n/2 set to laneNaNs[side], so the two operands of that element
// are NaNs of distinct payloads.
func laneOperands(rng *rand.Rand, n, side int) []float64 {
	v := adamEdgeVector(rng, n, false)
	if n > 0 {
		v[n/2] = laneNaNs[side]
	}
	return v
}

// TestGradLanesMatchGo checks each gradient lane kernel (train_amd64.s)
// against its Go loop, bit for bit, in an avx2 subtest (SKIP naming the
// missing ISA on a host without it): addInto, addScaledInto and
// drainInto over every length 0 to 67, so every whole-vector count and
// every Go-run tail, from a non-zero dst, both operands from
// laneOperands (NaN on both sides of one element included) and the
// scale 1, a fraction, a negative value and a NaN of a third payload;
// then maskBias over three rows of every width 0 to 67, with the mask,
// the bias gradient, both and neither, out drawn from the same values.
func TestGradLanesMatchGo(t *testing.T) {
	t.Run(kernelNames[kernelAVX2], func(t *testing.T) {
		needKernel(t, kernelAVX2)
		rng := rand.New(rand.NewSource(96))
		scales := []float64{1, 0.37, -2.5, math.Float64frombits(0x7ff8000000000789)}
		for n := 0; n <= 67; n++ {
			dst, src := laneOperands(rng, n, 0), laneOperands(rng, n, 1)
			want, got := slices.Clone(dst), slices.Clone(dst)
			addGo(want, src)
			onLaneKernel(kernelAVX2, func() { addInto(got, src) })
			bitsEqual(t, fmt.Sprintf("add n=%d", n), got, want)
			for _, s := range scales {
				name := fmt.Sprintf("n=%d s=%g", n, s)
				want, got = slices.Clone(dst), slices.Clone(dst)
				addScaledGo(want, src, s)
				onLaneKernel(kernelAVX2, func() { addScaledInto(got, src, s) })
				bitsEqual(t, "addScaled "+name, got, want)

				want, got = slices.Clone(dst), slices.Clone(dst)
				wantSrc, gotSrc := slices.Clone(src), slices.Clone(src)
				drainGo(want, wantSrc, s)
				onLaneKernel(kernelAVX2, func() { drainInto(got, gotSrc, s) })
				bitsEqual(t, "drain "+name, got, want)
				bitsEqual(t, "drain "+name+" source", gotSrc, wantSrc)
			}
		}
		const rows = 3
		for c := 0; c <= 67; c++ {
			g, out, db := laneOperands(rng, rows*c, 0), laneOperands(rng, rows*c, 1), laneOperands(rng, c, 1)
			for _, mask := range []bool{false, true} {
				for _, bias := range []bool{false, true} {
					name := fmt.Sprintf("maskBias c=%d mask=%v bias=%v", c, mask, bias)
					var o, wantDB, gotDB []float64
					if mask {
						o = out
					}
					if bias {
						wantDB, gotDB = slices.Clone(db), slices.Clone(db)
					}
					wantG, gotG := slices.Clone(g), slices.Clone(g)
					maskBiasGo(wantG, o, wantDB, c, 0)
					onLaneKernel(kernelAVX2, func() { maskBias(gotG, o, gotDB, c) })
					bitsEqual(t, name+" g", gotG, wantG)
					bitsEqual(t, name+" db", gotDB, wantDB)
				}
			}
		}
	})
}

// TestAffineWideMatchesGo runs Affine forward and backward through the
// tape, with the ReLU off and on, at output widths 64, 96 and 136 over
// K = 136, on each SIMD strip kernel the host runs and on the Go strip,
// and compares the output and the x, W and b gradients bit for bit. dX's
// rows are 136 wide and W's 64 to 136, so every AVX-512 block (2 × 64,
// 32, 16, 8) and every AVX2 one runs over a long contraction, through
// the gradient adds too; TestGemmBlockMatchesGo covers every width, but
// over short ones.
func TestAffineWideMatchesGo(t *testing.T) {
	for _, kernel := range simdKernels {
		t.Run(kernelNames[kernel], func(t *testing.T) {
			needKernel(t, kernel)
			rng := rand.New(rand.NewSource(98))
			const R, K = 9, 136
			for _, C := range []int{64, 96, 136} {
				for _, relu := range []bool{false, true} {
					name := fmt.Sprintf("%dx%d@%dx%d relu=%v", R, K, K, C, relu)
					x, w, b := randParam(rng, R, K), randParam(rng, K, C), randParam(rng, 1, C)
					reluSparse(rng, x)
					lossW := randConst(rng, R, C).Data
					pass := func() [4][]float64 {
						for _, p := range []*Tensor{x, w, b} {
							clear(p.Grad)
						}
						out := Affine(x, w, b, relu)
						Backward(weightedMean(out, lossW))
						return [4][]float64{slices.Clone(out.Data), slices.Clone(x.Grad), slices.Clone(w.Grad), slices.Clone(b.Grad)}
					}
					var got, want [4][]float64
					onKernel(kernel, func() { got = pass() })
					onGoKernel(func() { want = pass() })
					for i, part := range []string{" forward", " dX", " dW", " db"} {
						bitsEqual(t, name+part, got[i], want[i])
					}
				}
			}
		})
	}
}

// BenchmarkGradLanes times each gradient add over 192 elements (dX's
// two-row accumulator at a 96-wide layer) and maskBias over 60 rows 96
// wide, on the Go loop and the AVX2 kernel, named by the kernel that ran.
func BenchmarkGradLanes(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	dst, src := make([]float64, 192), make([]float64, 192)
	g, out, db := make([]float64, 60*96), make([]float64, 60*96), make([]float64, 96)
	for _, v := range [][]float64{src, g, out} {
		for i := range v {
			v[i] = rng.NormFloat64()
		}
	}
	for _, kernel := range []int{kernelGo, kernelAVX2} {
		b.Run(kernelNames[kernel], func(b *testing.B) {
			needKernel(b, kernel)
			onLaneKernel(kernel, func() {
				b.Run("add", func(b *testing.B) {
					for b.Loop() {
						addInto(dst, src)
					}
				})
				b.Run("drain", func(b *testing.B) {
					for b.Loop() {
						drainInto(dst, src, 0.5)
					}
				})
				b.Run("maskBias", func(b *testing.B) {
					for b.Loop() {
						maskBias(g, out, db, 96)
					}
				})
			})
		})
	}
}
