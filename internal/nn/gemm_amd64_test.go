//go:build amd64 && !purego

package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The kernel pair: the AVX2 micro-kernel must reproduce the Go one bit
// for bit, through every loop nest built on it.

func needAVX2(t testing.TB) {
	t.Helper()
	if !cpuHasAVX2() {
		t.Skip("no AVX2 on this host: the Go kernel is the only one running")
	}
}

// onGoKernel runs f with the assembly switched off.
func onGoKernel(f func()) {
	defer func(prev bool) { useAVX2 = prev }(useAVX2)
	useAVX2 = false
	f()
}

// edgeTensor mixes Gaussian entries with edgeValues.
func edgeTensor(rng *rand.Rand, r, c int) *Tensor {
	x := New(r, c)
	for i := range x.Data {
		if rng.Intn(3) == 0 {
			x.Data[i] = edgeValues[rng.Intn(len(edgeValues))]
		} else {
			x.Data[i] = rng.NormFloat64()
		}
	}
	return x
}

func bitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d: AVX2 %v (bits %x), Go %v (bits %x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestGemmBlockMatchesGo runs the forward and both gradient GEMMs on each
// kernel over output widths around the four-lane edge and at the models'
// real widths, odd row counts and contraction lengths around the
// four-step edge.
func TestGemmBlockMatchesGo(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(160))
	for _, c := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 48, 64, 96} {
		for _, r := range []int{1, 2, 3, 5, 8} {
			for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 11} {
				name := fmt.Sprintf("%dx%d@%dx%d", r, k, k, c)
				x, w, b := edgeTensor(rng, r, k), edgeTensor(rng, k, c), edgeTensor(rng, 1, c)
				outGrad := edgeTensor(rng, r, c).Data
				for _, relu := range []bool{false, true} {
					// One forward and one backward from zeroed gradients.
					pass := func() (out *Tensor, grads [3][]float64) {
						for _, p := range []*Tensor{x, w, b} {
							p.requiresGrad = true
							p.Grad = make([]float64, len(p.Data))
						}
						out = matmulFused(nil, x, w, b.Data, relu)
						out.Grad = append([]float64(nil), outGrad...)
						affineBackward(nil, x, w, b, out, relu)
						return out, [3][]float64{x.Grad, w.Grad, b.Grad}
					}
					got, gotGrads := pass()
					var want *Tensor
					var wantGrads [3][]float64
					onGoKernel(func() { want, wantGrads = pass() })
					bitsEqual(t, name+" forward", got.Data, want.Data)
					for i, pn := range []string{" dX", " dW", " db"} {
						bitsEqual(t, name+pn, gotGrads[i], wantGrads[i])
					}
				}
			}
		}
	}
}

// FuzzGemmBlock feeds both micro-kernels the same arbitrary finite
// operands and demands identical bits.
func FuzzGemmBlock(f *testing.F) {
	needAVX2(f)
	seed := make([]byte, 0, len(edgeValues)*8)
	for _, v := range edgeValues {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(uint8(1), seed)
	f.Add(uint8(5), seed[8:])
	f.Add(uint8(96), seed[3:])
	f.Add(uint8(7), []byte{0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x7f, 0xff})
	f.Fuzz(func(t *testing.T, width uint8, data []byte) {
		if len(data) == 0 {
			return
		}
		c := int(width)%100 + 1
		n := 0
		next := func() float64 { n++; return finiteFrom(data, n) }
		var p [8]float64
		for i := range p {
			p[i] = next()
		}
		var rows [6][]float64 // o0, o1, b0..b3
		for i := range rows {
			rows[i] = make([]float64, c)
			for j := range rows[i] {
				rows[i][j] = next()
			}
		}
		w0 := append([]float64(nil), rows[0]...)
		w1 := append([]float64(nil), rows[1]...)
		gemmBlockGo(w0, w1, rows[2], rows[3], rows[4], rows[5], &p)
		gemmBlockAVX2(&rows[0][0], &rows[1][0], &rows[2][0], &rows[3][0], &rows[4][0], &rows[5][0], &p, c)
		bitsEqual(t, "o0", rows[0], w0)
		bitsEqual(t, "o1", rows[1], w1)
	})
}

// BenchmarkGemmBlock times a 128-row forward GEMM on each kernel at the
// three layer shapes the cost models spend their time in.
func BenchmarkGemmBlock(b *testing.B) {
	needAVX2(b)
	rng := rand.New(rand.NewSource(161))
	for _, shape := range [][2]int{{164, 96}, {96, 96}, {48, 48}} {
		x, w := randParam(rng, 128, shape[0]), randParam(rng, shape[0], shape[1])
		var s Scratch
		run := func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Reset()
				matmulFused(&s, x, w, nil, false)
			}
		}
		b.Run(fmt.Sprintf("go/%dx%d", shape[0], shape[1]), func(b *testing.B) { onGoKernel(func() { run(b) }) })
		b.Run(fmt.Sprintf("avx2/%dx%d", shape[0], shape[1]), run)
	}
}
