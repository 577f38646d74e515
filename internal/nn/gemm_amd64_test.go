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

// finishValues are the values the strip's finish meets as pre-activations
// and biases: signed zeros, subnormals, infinities and NaNs — Go's
// math.NaN, the default NaN arithmetic makes and a signalling one.
var finishValues = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.5e-310, -2.5e-310,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff0000000000001),
	1, -1.5,
}

// finishVector returns n values, about half from finishValues and the
// rest Gaussian.
func finishVector(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(2) == 0 {
			v[i] = finishValues[rng.Intn(len(finishValues))]
		} else {
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// A finish is what the strip does after the last term: add a bias or
// not, then take the ReLU or not.
type finish struct {
	bias, relu bool
}

var finishes = []finish{{false, false}, {false, true}, {true, false}, {true, true}}

func (f finish) String() string { return fmt.Sprintf("bias=%v relu=%v", f.bias, f.relu) }

// zeroPatterns are the per-step scalar pairs that decide a skip: both
// rows zero (the step is skipped), exactly one zero (it must not be), and
// neither.
var zeroPatterns = [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}}

// TestGemmBlockMatchesGo checks each SIMD kernel the host runs against
// the Go strip and its epilogue, bit for bit: directly, at every width in
// stripWidths, contiguous (lda = 1) and strided (lda = K) scalars, an odd
// row run as both rows of its strip, ±0.0, denormal and 1e±300 operands,
// every zeroPatterns step and every finish, with biases drawn from
// finishValues; then with every step skipped, so that the pre-activations
// are finishValues themselves; then through the forward and both
// gradient GEMMs over odd row counts, dense and ReLU-sparse; then through
// the attention core's forward and backward (attendMatchesGo). The fresh
// cases run the strip in fresh mode over outputs filled with NaN, at
// every width, alias and finish, against the Go strip's fresh mode and
// its accumulation from zeroed outputs (freshMatchesGo).
func TestGemmBlockMatchesGo(t *testing.T) {
	for _, kernel := range simdKernels {
		t.Run(kernelNames[kernel], func(t *testing.T) {
			needKernel(t, kernel)
			rng := rand.New(rand.NewSource(160))
			for _, c := range stripWidths {
				for _, k := range []int{1, 2, 3, 4, 5, 8, 13} {
					for _, lda := range []int{1, k} {
						for _, alias := range []bool{false, true} {
							for _, fin := range finishes {
								name := fmt.Sprintf("strip c=%d K=%d lda=%d alias=%v %v", c, k, lda, alias, fin)
								stripMatchesGo(t, rng, kernel, name, c, k, lda, alias, fin)
							}
						}
					}
				}
				for _, alias := range []bool{false, true} {
					for _, fin := range finishes {
						name := fmt.Sprintf("forced c=%d alias=%v %v", c, alias, fin)
						finishMatchesGo(t, rng, kernel, name, c, alias, fin)
					}
				}
			}
			for _, c := range stripWidths {
				for _, k := range []int{1, 3, 8} {
					for _, lda := range []int{1, k} {
						for _, alias := range []bool{false, true} {
							for _, fin := range finishes {
								name := fmt.Sprintf("fresh c=%d K=%d lda=%d alias=%v %v", c, k, lda, alias, fin)
								freshMatchesGo(t, rng, kernel, name, c, k, lda, alias, fin)
							}
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
			for _, n := range []int{1, 2, 3, 10, 24} {
				for _, c := range []int{5, 48, 64} {
					attendMatchesGo(t, rng, kernel, n, c)
				}
			}
		})
	}
}

// stripMatchesGo runs one strip call on kernel and on the Go strip. Row
// 0's scalars sit at a[k·lda], row 1's at a[1 + k·lda] (strided) or
// a[K + k] (contiguous); step k follows zeroPatterns[k mod 4], rotated by
// the call so every pattern meets every step position.
func stripMatchesGo(t *testing.T, rng *rand.Rand, kernel int, name string, c, K, lda int, alias bool, fin finish) {
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
	var bias []float64
	if fin.bias {
		bias = finishVector(rng, c)
	}
	bitsEqual(t, name, runStrip(kernel, init, a, off1, lda, b, c, K, alias, bias, fin.relu, false),
		runStrip(kernelGo, init, a, off1, lda, b, c, K, alias, bias, fin.relu, false))
}

// freshMatchesGo runs one fresh strip call, scalars and steps as in
// stripMatchesGo, over outputs filled with NaN on kernel and on the Go
// strip, and checks both against the Go strip accumulating onto zeroed
// outputs: a fresh strip must write every output without reading it.
func freshMatchesGo(t *testing.T, rng *rand.Rand, kernel int, name string, c, K, lda int, alias bool, fin finish) {
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
	var bias []float64
	if fin.bias {
		bias = finishVector(rng, c)
	}
	nans := make([]float64, 2*c)
	poison(nans)
	want := runStrip(kernelGo, make([]float64, 2*c), a, off1, lda, b, c, K, alias, bias, fin.relu, false)
	if alias {
		want = want[:c] // the second row is not an output
	}
	bitsEqual(t, name+" Go", runStrip(kernelGo, nans, a, off1, lda, b, c, K, alias, bias, fin.relu, true), want)
	bitsEqual(t, name, runStrip(kernel, nans, a, off1, lda, b, c, K, alias, bias, fin.relu, true), want)
}

// finishMatchesGo runs one strip call whose every step is skipped (all
// scalars ±0.0), so each output's pre-activation is its initial value,
// drawn from finishValues, and compares kernel's finish with the Go
// strip's epilogue.
func finishMatchesGo(t *testing.T, rng *rand.Rand, kernel int, name string, c int, alias bool, fin finish) {
	t.Helper()
	const K = 3
	a := make([]float64, 2*K)
	a[1], a[K+2] = math.Copysign(0, -1), math.Copysign(0, -1)
	b := edgeTensor(rng, K, c).Data
	init := finishVector(rng, 2*c)
	var bias []float64
	if fin.bias {
		bias = finishVector(rng, c)
	}
	bitsEqual(t, name, runStrip(kernel, init, a, K, 1, b, c, K, alias, bias, fin.relu, false),
		runStrip(kernelGo, init, a, K, 1, b, c, K, alias, bias, fin.relu, false))
}

// runStrip runs one strip call, fresh or accumulating, on kernel over a
// copy of init (two c-wide output rows; alias runs row 0 as both rows)
// and returns the copy.
func runStrip(kernel int, init, a []float64, off1, lda int, b []float64, c, K int, alias bool, bias []float64, relu, fresh bool) []float64 {
	o := append([]float64(nil), init...)
	o0, o1 := o[:c], o[c:]
	if alias {
		o1, off1 = o0, 0
	}
	onKernel(kernel, func() { gemmStrip(o0, o1, a, 0, off1, lda, b, c, K, bias, relu, fresh) })
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

// attendMatchesGo runs the attention core's forward and backward, from
// zeroed gradients, on kernel, on the Go strip and as the scalar loops it
// replaced (attendRef, attendBackwardRef), over segments of n, 2 and n
// rows, c wide, with about half the operands ±0.0; it compares the
// values, the softmax blocks and the q, k and v gradients bit for bit.
// The first query row is all zero, a uniform softmax whose every score
// step is skipped when it runs alone (n = 1); the last row's scores fall
// 1e4·scale apart, so its softmax underflows to exact zeros (n ≥ 2).
func attendMatchesGo(t *testing.T, rng *rand.Rand, kernel, n, c int) {
	t.Helper()
	name := fmt.Sprintf("attend n=%d C=%d", n, c)
	lens := []int{n, 2, n}
	r := 2*n + 2
	q, k, v := randParam(rng, r, c), randParam(rng, r, c), randParam(rng, r, c)
	outGrad := randParam(rng, r, c)
	for _, x := range []*Tensor{q, k, v, outGrad} {
		reluSparse(rng, x)
	}
	clear(q.Data[:c])
	last := q.Data[(r-1)*c:]
	clear(last)
	last[0] = 1e4
	for j := 0; j < n; j++ {
		k.Data[(r-n+j)*c] = -float64(j)
	}
	scale := 1 / math.Sqrt(float64(c))
	maxN := checkSegments("attention", lens, r)
	pass := func(ref bool) [5][]float64 {
		for _, p := range []*Tensor{q, k, v} {
			p.requiresGrad = true
			p.Grad = make([]float64, len(p.Data))
		}
		var out *Tensor
		var probs []float64
		if ref {
			out, probs = attendRef(q, k, v, lens, scale)
		} else {
			out, probs = attendIn(nil, q, k, v, lens, maxN, scale)
		}
		out.Grad = outGrad.Data
		if ref {
			attendBackwardRef(nil, q, k, v, out, lens, probs, scale)
		} else {
			attendBackward(nil, q, k, v, out, lens, probs, scale)
		}
		return [5][]float64{out.Data, probs, q.Grad, k.Grad, v.Grad}
	}
	var got, goStrip [5][]float64
	onKernel(kernel, func() { got = pass(false) })
	onGoKernel(func() { goStrip = pass(false) })
	ref := pass(true)
	if lastRow := ref[1][len(ref[1])-n:]; n >= 2 && lastRow[n-1] != 0 {
		t.Fatalf("%s: the last row's softmax did not underflow: %v", name, lastRow)
	}
	for i, part := range []string{" forward", " softmax", " dQ", " dK", " dV"} {
		bitsEqual(t, name+part+" against Go", got[i], goStrip[i])
		bitsEqual(t, name+part+" Go against the scalar loops", goStrip[i], ref[i])
	}
}

// attendRef is the attention core's forward as the scalar loops that ran
// it before the strip: per segment, the scaled scores, each row's
// softmax and the value mix.
func attendRef(q, k, v *Tensor, lens []int, scale float64) (ctx *Tensor, probs []float64) {
	ctx = New(q.R, q.C)
	n2 := 0
	for _, n := range lens {
		n2 += n * n
	}
	probs = make([]float64, n2)
	off, pOff := 0, 0
	for _, n := range lens {
		P := probs[pOff : pOff+n*n]
		scoresRef(P, q, k, off, n, scale)
		for i := 0; i < n; i++ {
			softmaxRow(P[i*n : i*n+n])
		}
		mixRef(ctx, P, v, off, n)
		off += n
		pOff += n * n
	}
	return ctx, probs
}

// scoresRef writes one segment's scaled scores into its n×n block P: the
// full dot against each of the segment's keys in ascending order, then
// one multiply by the scale. Query rows go in pairs sharing each key row
// load.
func scoresRef(P []float64, q, k *Tensor, off, n int, scale float64) {
	C := q.C
	r := 0
	for ; r+2 <= n; r += 2 {
		row0, row1 := P[r*n:r*n+n], P[(r+1)*n:(r+2)*n]
		q0 := q.Data[(off+r)*C : (off+r)*C+C]
		q1 := q.Data[(off+r+1)*C : (off+r+1)*C+C]
		for jj := 0; jj < n; jj++ {
			kRow := k.Data[(off+jj)*C : (off+jj)*C+C]
			var s0, s1 float64
			for kk, kv := range kRow {
				s0 += q0[kk] * kv
				s1 += q1[kk] * kv
			}
			row0[jj] = s0 * scale
			row1[jj] = s1 * scale
		}
	}
	if r < n {
		row0 := P[r*n : r*n+n]
		qRow := q.Data[(off+r)*C : (off+r)*C+C]
		for jj := 0; jj < n; jj++ {
			kRow := k.Data[(off+jj)*C : (off+jj)*C+C]
			var sc float64
			for kk, kv := range kRow {
				sc += qRow[kk] * kv
			}
			row0[jj] = sc * scale
		}
	}
}

// mixRef adds one segment's value mix P·V to its rows of ctx, ascending
// over the segment's value rows, query rows in pairs.
func mixRef(ctx *Tensor, P []float64, v *Tensor, off, n int) {
	C := ctx.C
	r := 0
	for ; r+2 <= n; r += 2 {
		row0, row1 := P[r*n:r*n+n], P[(r+1)*n:(r+2)*n]
		c0 := ctx.Data[(off+r)*C : (off+r)*C+C]
		c1 := ctx.Data[(off+r+1)*C : (off+r+1)*C+C]
		for jj := 0; jj < n; jj++ {
			a0, a1 := row0[jj], row1[jj]
			vRow := v.Data[(off+jj)*C : (off+jj)*C+C]
			for c2, vv := range vRow {
				c0[c2] += a0 * vv
				c1[c2] += a1 * vv
			}
		}
	}
	if r < n {
		cRow := ctx.Data[(off+r)*C : (off+r)*C+C]
		for jj, av := range P[r*n : r*n+n] {
			vRow := v.Data[(off+jj)*C : (off+jj)*C+C]
			for c2, vv := range vRow {
				cRow[c2] += av * vv
			}
		}
	}
}

// attendBackwardRef is attendBackward as the scalar loops that ran it
// before the strip.
func attendBackwardRef(s *Scratch, q, k, v, out *Tensor, lens []int, probs []float64, scale float64) {
	C := q.C
	maxN := 0
	for _, n := range lens {
		maxN = max(maxN, n)
	}
	dP := s.floats(maxN * maxN)
	dV, dK, dQ := s.floats(maxN*C), s.floats(maxN*C), s.floats(maxN*C)
	off, pOff := out.R, len(probs)
	for sg := len(lens) - 1; sg >= 0; sg-- {
		n := lens[sg]
		off -= n
		pOff -= n * n
		P := probs[pOff : pOff+n*n]
		G := out.Grad[off*C : (off+n)*C]
		dv, dk, dq, dp := dV[:n*C], dK[:n*C], dQ[:n*C], dP[:n*n]
		clear(dv)
		clear(dk)
		clear(dq)
		for i := 0; i < n; i++ {
			gRow := G[i*C : i*C+C]
			for j := 0; j < n; j++ {
				vRow := v.Data[(off+j)*C : (off+j)*C+C]
				var dot float64
				for c, gv := range gRow {
					dot += gv * vRow[c]
				}
				dp[i*n+j] = dot
				p := P[i*n+j]
				dvRow := dv[j*C : j*C+C]
				for c, gv := range gRow {
					dvRow[c] += p * gv
				}
			}
		}
		for i := 0; i < n; i++ {
			row, grow := P[i*n:i*n+n], dp[i*n:i*n+n]
			var dot float64
			for j := range row {
				dot += grow[j] * row[j]
			}
			for j := range row {
				grow[j] = row[j] * (grow[j] - dot) * scale
			}
		}
		for i := 0; i < n; i++ {
			qRow := q.Data[(off+i)*C : (off+i)*C+C]
			dqRow := dq[i*C : i*C+C]
			for j, sv := range dp[i*n : i*n+n] {
				kRow := k.Data[(off+j)*C : (off+j)*C+C]
				dkRow := dk[j*C : j*C+C]
				for c, kv := range kRow {
					dqRow[c] += sv * kv
					dkRow[c] += qRow[c] * sv
				}
			}
		}
		addRows(v, off, dv)
		addRows(k, off, dk)
		addRows(q, off, dq)
	}
}

// FuzzGemmBlock feeds every SIMD kernel the host runs and the Go strip
// the same arbitrary finite operands — width, contraction length, scalar
// stride, aliased rows and initial outputs included — and the same
// finish: mode's bit 2 takes the ReLU, and bit 3 adds a bias of any bits,
// NaN and ±Inf included. Bit 4 runs the strip fresh over outputs filled
// with NaN, which must match the Go strip accumulating onto zeroed ones.
// It demands identical bits.
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
	f.Add(uint8(12), uint8(40), uint8(3), seed)
	f.Add(uint8(14), uint8(9), uint8(1), []byte{0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0xff, 0x80})
	f.Add(uint8(16), uint8(37), uint8(6), seed)
	f.Add(uint8(30), uint8(9), uint8(4), seed[5:])
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
		relu := mode&4 != 0
		var bias []float64
		if mode&8 != 0 {
			bias = make([]float64, c)
			for i := range bias {
				n++
				bias[i] = floatFrom(data, n)
			}
		}
		fresh := mode&16 != 0
		if fresh {
			clear(init)
		}
		want := runStrip(kernelGo, init, a, off1, lda, b, c, K, alias, bias, relu, false)
		if fresh {
			if alias {
				want = want[:c] // the second row is not an output
			}
			poison(init)
			bitsEqual(t, "go fresh", runStrip(kernelGo, init, a, off1, lda, b, c, K, alias, bias, relu, true), want)
		}
		for _, kernel := range kernels {
			bitsEqual(t, kernelNames[kernel], runStrip(kernel, init, a, off1, lda, b, c, K, alias, bias, relu, fresh), want)
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

// BenchmarkAttend times the attention core's products over 32 segments
// at PaCM's shape (10 rows, 48 wide) and TLP's (24 rows, 64 wide), on
// each kernel and as the scalar loops the strip replaced ("scalar"):
// scores is Q·Kᵀ times the scale (the keys' transposed panel included,
// the softmax not), mix is P·V, backward is the whole attendBackward.
func BenchmarkAttend(b *testing.B) {
	rng := rand.New(rand.NewSource(162))
	const segs = 32
	for _, sh := range []struct{ n, c int }{{10, 48}, {24, 64}} {
		n, C := sh.n, sh.c
		q, k, v := randParam(rng, segs*n, C), randParam(rng, segs*n, C), randParam(rng, segs*n, C)
		lens := make([]int, segs)
		for i := range lens {
			lens[i] = n
		}
		scale := 1 / math.Sqrt(float64(C))
		out, probs := attendIn(nil, q, k, v, lens, n, scale)
		out.Grad = randParam(rng, segs*n, C).Data
		kT, P, ctx := make([]float64, C*n), make([]float64, segs*n*n), New(segs*n, C)
		halves := []struct {
			name         string
			strip, loops func(s *Scratch)
		}{
			{"scores", func(*Scratch) {
				for off := 0; off < segs*n; off += n {
					Pb := P[off*n : (off+n)*n]
					transposeInto(kT, k.Data[off*C:(off+n)*C], n, C)
					stripRows(Pb, n, q.Data, off*C, C, 1, kT, n, C, true)
					for j := range Pb {
						Pb[j] *= scale
					}
				}
			}, func(*Scratch) {
				for off := 0; off < segs*n; off += n {
					scoresRef(P[off*n:(off+n)*n], q, k, off, n, scale)
				}
			}},
			{"mix", func(*Scratch) {
				for off := 0; off < segs*n; off += n {
					stripRows(ctx.Data[off*C:(off+n)*C], C, probs, off*n, n, 1, v.Data[off*C:], C, n, true)
				}
			}, func(*Scratch) {
				clear(ctx.Data)
				for off := 0; off < segs*n; off += n {
					mixRef(ctx, probs[off*n:(off+n)*n], v, off, n)
				}
			}},
			{"backward", func(s *Scratch) {
				attendBackward(s, q, k, v, out, lens, probs, scale)
			}, func(s *Scratch) {
				attendBackwardRef(s, q, k, v, out, lens, probs, scale)
			}},
		}
		shape := fmt.Sprintf("n%dc%d", n, C)
		for _, h := range halves {
			run := func(b *testing.B, f func(*Scratch)) {
				var s Scratch
				for i := 0; i < b.N; i++ {
					s.Reset()
					f(&s)
				}
			}
			b.Run("scalar/"+shape+"/"+h.name, func(b *testing.B) { run(b, h.loops) })
			for _, kernel := range []int{kernelGo, kernelAVX2, kernelAVX512} {
				b.Run(kernelNames[kernel]+"/"+shape+"/"+h.name, func(b *testing.B) {
					needKernel(b, kernel)
					onKernel(kernel, func() { run(b, h.strip) })
				})
			}
		}
	}
}
