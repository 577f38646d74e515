//go:build amd64 && !purego

package nn

// laneKernel is the kernel of the elementwise lane loops, Adam's update
// here and the gradient adds (train_amd64.go): one of the strip's kernel
// constants (gemm_amd64.go), decided once like gemmKernel. It is AVX2
// wherever the host has it, AVX-512 hosts included: the update is bound
// by its divides and square root, which are no faster per element on zmm
// (BenchmarkAdamUpdate), and the adds have no AVX-512 kernel.
var laneKernel = min(bestKernel(), kernelAVX2)

// adamUpdate runs the update (optim.go) over len(p) elements: the lane
// kernel over the whole vectors, the Go loop over the rest.
func adamUpdate(p, g, m, v []float64, k *adamConsts) {
	n := len(p)
	g, m, v = g[:n], m[:n], v[:n]
	lanes := 0
	if laneKernel == kernelAVX2 {
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
