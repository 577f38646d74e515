//go:build amd64 && !purego

package nn

// adamKernel is the update kernel in use (optim.go), one of the strip's
// kernel constants (gemm_amd64.go), decided once like gemmKernel: AVX2
// wherever the host has it, AVX-512 hosts included, since the update is
// bound by its divides and square root, which are no faster per element
// on zmm (BenchmarkAdamUpdate).
var adamKernel = min(bestKernel(), kernelAVX2)

// adamUpdate runs the update (optim.go) over len(p) elements: the lane
// kernel over the whole vectors, the Go loop over the rest.
func adamUpdate(p, g, m, v []float64, k *adamConsts) {
	n := len(p)
	g, m, v = g[:n], m[:n], v[:n]
	lanes := 0
	if adamKernel == kernelAVX2 {
		if lanes = n &^ 3; lanes > 0 {
			adamAVX2(&p[0], &g[0], &m[0], &v[0], lanes, k)
		}
	}
	adamGo(p[lanes:], g[lanes:], m[lanes:], v[lanes:], k)
}

// adamAVX2 is the update in optim_amd64.s on AVX2, four elements a
// vector; n is a multiple of 4. The gradients are gr: g names the
// goroutine register in Go's assembler.
//
//go:noescape
func adamAVX2(p, gr, m, v *float64, n int, k *adamConsts)
