//go:build amd64 && !purego

package nn

// useAVX2 selects the assembly micro-kernel: decided once, from what the
// processor and the operating system report, never by an option.
var useAVX2 = cpuHasAVX2()

// gemmBlock runs the micro-kernel (gemm.go) over len(o0) output columns.
func gemmBlock(o0, o1, b0, b1, b2, b3 []float64, p *[8]float64) {
	if !useAVX2 {
		gemmBlockGo(o0, o1, b0, b1, b2, b3, p)
		return
	}
	// The assembly reads c elements through each pointer (c >= 1: no
	// tensor is empty).
	c := len(o0)
	_, _, _, _, _ = o1[c-1], b0[c-1], b1[c-1], b2[c-1], b3[c-1]
	gemmBlockAVX2(&o0[0], &o1[0], &b0[0], &b1[0], &b2[0], &b3[0], p, c)
}

// gemmBlockAVX2 is the micro-kernel in gemm_amd64.s: four output columns
// per lane group, VMULPD then VADDPD per contraction step, a scalar tail
// for c mod 4.
//
//go:noescape
func gemmBlockAVX2(o0, o1, b0, b1, b2, b3 *float64, p *[8]float64, c int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// cpuHasAVX2 reports AVX2 usable from user code: the instruction set
// (CPUID.7:EBX[5]) and the OS saving the YMM state (OSXSAVE and AVX in
// CPUID.1:ECX, XMM and YMM enabled in XCR0).
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}
