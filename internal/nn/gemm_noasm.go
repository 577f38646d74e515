//go:build !amd64 || purego

package nn

// gemmStrip runs the strip (gemm.go): without the assembly, the Go one.
func gemmStrip(o0, o1, a []float64, off0, off1, lda int, b []float64, ldb, K int, bias []float64, relu bool) {
	gemmStripGo(o0, o1, a, off0, off1, lda, b, ldb, K, bias, relu)
}
