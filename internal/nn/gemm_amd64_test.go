//go:build amd64 && !purego

package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The strip kernels: every SIMD kernel the host can run must reproduce
// the Go one bit for bit, directly and through every loop nest built on
// it. A kernel the host cannot run is skipped by name.

// kernelNames names each kernel in test and benchmark output.
var kernelNames = [...]string{kernelGo: "go", kernelAVX2: "avx2", kernelAVX512: "avx512"}

// simdKernels are the assembly kernels, each checked against the Go one.
var simdKernels = []int{kernelAVX2, kernelAVX512}

// missingISA names what the host lacks to run kernel, or "" if nothing.
func missingISA(kernel int) string {
	switch {
	case kernel == kernelAVX512 && !cpuHasAVX512():
		return "AVX-512F, or the OS does not save the opmask and ZMM state"
	case kernel == kernelAVX2 && !cpuHasAVX2():
		return "AVX2, or the OS does not save the YMM state"
	}
	return ""
}

// needKernel skips tb unless the host runs kernel, naming what it lacks.
func needKernel(tb testing.TB, kernel int) {
	tb.Helper()
	if isa := missingISA(kernel); isa != "" {
		tb.Skipf("%s kernel not run: this host lacks %s", kernelNames[kernel], isa)
	}
}

// onKernel runs f with the strip forced to kernel.
func onKernel(kernel int, f func()) {
	defer func(prev int) { gemmKernel = prev }(gemmKernel)
	gemmKernel = kernel
	f()
}

// onGoKernel runs f with the assembly switched off.
func onGoKernel(f func()) { onKernel(kernelGo, f) }

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

// reluSparse zeroes about half of x's entries, as a ReLU does, with a
// signed zero now and then.
func reluSparse(rng *rand.Rand, x *Tensor) {
	for i := range x.Data {
		switch rng.Intn(4) {
		case 0:
			x.Data[i] = 0
		case 1:
			x.Data[i] = math.Copysign(0, -1)
		}
	}
}

func bitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d: %v (bits %x), Go %v (bits %x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// stripWidths are the output widths the kernels are checked at: every
// width through two 16-lane blocks and a ragged tail on either kernel,
// and the models' real widths, one past the widest.
var stripWidths = func() []int {
	ws := []int{48, 64, 96, 128, 129}
	for c := 40; c >= 1; c-- {
		ws = append(ws, c)
	}
	return ws
}()

// zeroPatterns are the per-step scalar pairs that decide a skip: both
// rows zero (the step is skipped), exactly one zero (it must not be), and
// neither.
var zeroPatterns = [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}}

// TestGemmBlockMatchesGo checks each SIMD kernel the host runs against
// the Go strip, bit for bit: directly, at every width in stripWidths,
// contiguous (lda = 1) and strided (lda = K) scalars, an odd row run as
// both rows of its strip, ±0.0, denormal and 1e±300 operands and every
// zeroPatterns step; then through the forward and both gradient GEMMs
// over odd row counts, dense and ReLU-sparse.
func TestGemmBlockMatchesGo(t *testing.T) {
	for _, kernel := range simdKernels {
		t.Run(kernelNames[kernel], func(t *testing.T) {
			needKernel(t, kernel)
			rng := rand.New(rand.NewSource(160))
			for _, c := range stripWidths {
				for _, k := range []int{1, 2, 3, 4, 5, 8, 13} {
					for _, lda := range []int{1, k} {
						for _, alias := range []bool{false, true} {
							name := fmt.Sprintf("strip c=%d K=%d lda=%d alias=%v", c, k, lda, alias)
							stripMatchesGo(t, rng, kernel, name, c, k, lda, alias)
						}
					}
				}
			}
			for _, c := range stripWidths {
				for _, r := range []int{1, 2, 3, 5, 8} {
					for _, k := range []int{1, 2, 3, 5, 8, 11} {
						name := fmt.Sprintf("%dx%d@%dx%d", r, k, k, c)
						for _, relu := range []bool{false, true} {
							affineMatchesGo(t, rng, kernel, name, r, k, c, relu)
						}
					}
				}
			}
		})
	}
}

// stripMatchesGo runs one strip call on kernel and on the Go strip. Row
// 0's scalars sit at a[k·lda], row 1's at a[1 + k·lda] (strided) or
// a[K + k] (contiguous); step k follows zeroPatterns[k mod 4], rotated by
// the call so every pattern meets every step position.
func stripMatchesGo(t *testing.T, rng *rand.Rand, kernel int, name string, c, K, lda int, alias bool) {
	t.Helper()
	off1 := K
	if lda > 1 {
		off1 = 1
	}
	a := edgeTensor(rng, 1, off1+(K-1)*lda+2).Data
	rot := rng.Intn(len(zeroPatterns))
	for k := 0; k < K; k++ {
		zp := zeroPatterns[(k+rot)%len(zeroPatterns)]
		if zp[0] {
			a[k*lda] = 0
		}
		if zp[1] {
			a[off1+k*lda] = math.Copysign(0, -1)
		}
	}
	b := edgeTensor(rng, K, c).Data
	init := edgeTensor(rng, 2, c).Data
	init[0] = math.Copysign(0, -1) // a −0.0 accumulator: only an identical skip keeps it
	bitsEqual(t, name, runStrip(kernel, init, a, off1, lda, b, c, K, alias),
		runStrip(kernelGo, init, a, off1, lda, b, c, K, alias))
}

// runStrip runs one strip call on kernel over a copy of init (two c-wide
// output rows; alias runs row 0 as both rows) and returns the copy.
func runStrip(kernel int, init, a []float64, off1, lda int, b []float64, c, K int, alias bool) []float64 {
	o := append([]float64(nil), init...)
	o0, o1 := o[:c], o[c:]
	if alias {
		o1, off1 = o0, 0
	}
	onKernel(kernel, func() { gemmStrip(o0, o1, a, 0, off1, lda, b, c, K) })
	return o
}

// affineMatchesGo runs one forward and one backward from zeroed
// gradients on kernel and on the Go strip and compares every output.
func affineMatchesGo(t *testing.T, rng *rand.Rand, kernel int, name string, r, k, c int, relu bool) {
	t.Helper()
	x, w, b := edgeTensor(rng, r, k), edgeTensor(rng, k, c), edgeTensor(rng, 1, c)
	if relu {
		reluSparse(rng, x)
	}
	outGrad := edgeTensor(rng, r, c).Data
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
	var got, want *Tensor
	var gotGrads, wantGrads [3][]float64
	onKernel(kernel, func() { got, gotGrads = pass() })
	onGoKernel(func() { want, wantGrads = pass() })
	bitsEqual(t, name+" forward", got.Data, want.Data)
	for i, pn := range []string{" dX", " dW", " db"} {
		bitsEqual(t, name+pn, gotGrads[i], wantGrads[i])
	}
}

// FuzzGemmBlock feeds every SIMD kernel the host runs and the Go strip
// the same arbitrary finite operands — width, contraction length, scalar
// stride, aliased rows and initial outputs included — and demands
// identical bits.
func FuzzGemmBlock(f *testing.F) {
	var kernels []int
	for _, kernel := range simdKernels {
		if missingISA(kernel) == "" {
			kernels = append(kernels, kernel)
		}
	}
	if len(kernels) == 0 {
		f.Skip("no SIMD kernel to check: this host lacks AVX2")
	}
	seed := make([]byte, 0, len(edgeValues)*8)
	for _, v := range edgeValues {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(uint8(0), uint8(0), uint8(0), seed)
	f.Add(uint8(1), uint8(4), uint8(5), seed[8:])
	f.Add(uint8(2), uint8(95), uint8(7), seed[3:])
	f.Add(uint8(3), uint8(6), uint8(2), []byte{0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x7f, 0xff})
	f.Add(uint8(1), uint8(128), uint8(11), append(make([]byte, 16), seed...)) // zero pairs among the scalars
	f.Fuzz(func(t *testing.T, mode, width, steps uint8, data []byte) {
		if len(data) == 0 {
			return
		}
		c, K := int(width)%130+1, int(steps)%13+1
		lda, off1 := 1, K
		if mode&1 != 0 {
			lda, off1 = 3, 1
		}
		alias := mode&2 != 0
		n := 0
		next := func() float64 { n++; return finiteFrom(data, n) }
		fill := func(m int) []float64 {
			v := make([]float64, m)
			for i := range v {
				v[i] = next()
			}
			return v
		}
		a, b, init := fill(off1+(K-1)*lda+1), fill(K*c), fill(2*c)
		want := runStrip(kernelGo, init, a, off1, lda, b, c, K, alias)
		for _, kernel := range kernels {
			bitsEqual(t, kernelNames[kernel], runStrip(kernel, init, a, off1, lda, b, c, K, alias), want)
		}
	})
}

// BenchmarkGemmBlock times a 128-row forward GEMM on each kernel, named
// by the kernel that ran, at the cost models' layer shapes: TenSetMLP's
// compacted statement input (45 of its 164 columns survive in an Ansor
// session) and hidden
// layer into 128, PaCM's 96- and 48-wide layers, the 64 → 1 score head,
// and the 128 → 128 layer over a half-zero ReLU input.
func BenchmarkGemmBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(161))
	shapes := []struct {
		name   string
		k, c   int
		sparse bool
	}{
		{"stmt45x128", 45, 128, false},
		{"128x128", 128, 128, false},
		{"96x96", 96, 96, false},
		{"48x48", 48, 48, false},
		{"64x1", 64, 1, false},
		{"128x128relu50", 128, 128, true},
	}
	for _, kernel := range []int{kernelGo, kernelAVX2, kernelAVX512} {
		for _, sh := range shapes {
			x, w := randParam(rng, 128, sh.k), randParam(rng, sh.k, sh.c)
			if sh.sparse {
				for i := range x.Data {
					if rng.Intn(2) == 0 {
						x.Data[i] = 0
					}
				}
			}
			b.Run(kernelNames[kernel]+"/"+sh.name, func(b *testing.B) {
				needKernel(b, kernel)
				var s Scratch
				onKernel(kernel, func() {
					for i := 0; i < b.N; i++ {
						s.Reset()
						matmulFused(&s, x, w, nil, false)
					}
				})
			})
		}
	}
}
