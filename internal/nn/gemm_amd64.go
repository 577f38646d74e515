//go:build amd64 && !purego

package nn

// The strip kernels (gemm.go), narrowest first.
const (
	kernelGo = iota
	kernelAVX2
	kernelAVX512
)

// gemmKernel is the strip kernel in use: decided once, from what the
// processor and the operating system report, never by an option.
var gemmKernel = bestKernel()

// gemmStrip runs the strip (gemm.go) over len(o0) output columns, from
// +0.0 when fresh is set and from the outputs' values otherwise, then
// adds bias (nil: none) and takes the ReLU.
func gemmStrip(o0, o1, a []float64, off0, off1, lda int, b []float64, ldb, K int, bias []float64, relu, fresh bool) {
	if gemmKernel == kernelGo || K <= 0 {
		gemmStripGo(o0, o1, a, off0, off1, lda, b, ldb, K, bias, relu, fresh)
		return
	}
	if fresh && poisonRaw.Load() {
		poison(o0) // fresh, the assembly must write what it never reads
		poison(o1)
	}
	// The assembly reads c elements of each output row and of the bias,
	// K scalars from each of &a[off0] and &a[off1] lda apart, and K rows
	// of b, ldb apart, c long (c >= 1: no tensor is empty).
	c, last := len(o0), (K-1)*lda
	_, _, _, _ = o1[c-1], a[off0+last], a[off1+last], b[(K-1)*ldb+c-1]
	var bp *float64
	if bias != nil {
		_ = bias[c-1]
		bp = &bias[0]
	}
	if gemmKernel == kernelAVX512 {
		gemmStripAVX512(&o0[0], &o1[0], &a[off0], &a[off1], lda, &b[0], ldb, K, c, bp, relu, fresh)
	} else {
		gemmStripAVX2(&o0[0], &o1[0], &a[off0], &a[off1], lda, &b[0], ldb, K, c, bp, relu, fresh)
	}
}

// gemmStripAVX512 is the strip in gemm_amd64.s on AVX-512F: a 2 × 32
// block of outputs in eight zmm registers for the whole contraction, then
// 2 × 16, 2 × 8 and one masked 2 × (c mod 8) block for a ragged width.
// Each block starts from its outputs or, fresh, from +0.0 in registers,
// and adds the bias (nil: none) and takes the ReLU in registers.
//
//go:noescape
func gemmStripAVX512(o0, o1, a0, a1 *float64, lda int, b *float64, ldb, k, c int, bias *float64, relu, fresh bool)

// gemmStripAVX2 is the strip in gemm_amd64.s on AVX2: a 2 × 16 block in
// eight ymm registers, then 2 × 8, 2 × 4 and one masked 2 × (c mod 4),
// each finished like the AVX-512 strip's.
//
//go:noescape
func gemmStripAVX2(o0, o1, a0, a1 *float64, lda int, b *float64, ldb, k, c int, bias *float64, relu, fresh bool)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// bestKernel picks the widest kernel the host can run.
func bestKernel() int {
	switch {
	case cpuHasAVX512():
		return kernelAVX512
	case cpuHasAVX2():
		return kernelAVX2
	}
	return kernelGo
}

// osSaves reports whether the OS saves the register state whose XCR0
// bits are mask (OSXSAVE in CPUID.1:ECX, then XGETBV), on a processor
// with CPUID leaf 7.
func osSaves(mask uint32) bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&mask == mask
}

// cpuHasAVX2 reports AVX2 usable from user code: the instruction set
// (CPUID.7.0:EBX[5]) and the XMM and YMM state saved (XCR0 bits 1, 2).
func cpuHasAVX2() bool {
	if !osSaves(1<<1 | 1<<2) {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// cpuHasAVX512 reports AVX-512F usable from user code: the instruction
// set (CPUID.7.0:EBX[16]) and the XMM, YMM, opmask and both halves of the
// ZMM state saved (XCR0 bits 1, 2, 5, 6, 7).
func cpuHasAVX512() bool {
	if !osSaves(1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7) {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0
}
