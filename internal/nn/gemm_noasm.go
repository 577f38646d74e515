//go:build !amd64 || purego

package nn

// gemmBlock runs the micro-kernel (gemm.go): without the assembly, the Go
// one.
func gemmBlock(o0, o1, b0, b1, b2, b3 []float64, p *[8]float64) {
	gemmBlockGo(o0, o1, b0, b1, b2, b3, p)
}
