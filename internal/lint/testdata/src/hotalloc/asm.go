package hotalloc

// An assembly-backed callee has no body for the analyzer to walk: it is
// a leaf of the hot call graph that allocates nothing, and reaching it
// from a root is not a finding. (nn's GEMM micro-kernel is one.)

//pruner:hotpath
func (m *model) Accumulate(xs []float64) {
	if len(xs) == 0 {
		return
	}
	axpy(&m.buf[0], &xs[0], len(xs))
}

// axpy is implemented in assembly.
//
//go:noescape
func axpy(dst, src *float64, n int)
