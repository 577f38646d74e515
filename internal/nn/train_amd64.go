//go:build amd64 && !purego

package nn

// The gradient adds (train.go) in lanes: each runs its AVX2 kernel
// (train_amd64.s) over the whole vectors when laneKernel is AVX2, and its
// Go loop over the rest, so every element is the Go loop's.

// addInto adds src into dst, element by element (addGo).
func addInto(dst, src []float64) {
	src = src[:len(dst)]
	lanes := 0
	if laneKernel == kernelAVX2 {
		if lanes = len(dst) &^ 3; lanes > 0 {
			addAVX2(&dst[0], &src[0], lanes)
		}
	}
	addGo(dst[lanes:], src[lanes:])
}

// addScaledInto adds src·s into dst (addScaledGo).
func addScaledInto(dst, src []float64, s float64) {
	src = src[:len(dst)]
	lanes := 0
	if laneKernel == kernelAVX2 {
		if lanes = len(dst) &^ 3; lanes > 0 {
			addScaledAVX2(&dst[0], &src[0], lanes, s)
		}
	}
	addScaledGo(dst[lanes:], src[lanes:], s)
}

// drainInto adds src·s into dst and zeroes src (drainGo).
func drainInto(dst, src []float64, s float64) {
	src = src[:len(dst)]
	lanes := 0
	if laneKernel == kernelAVX2 {
		if lanes = len(dst) &^ 3; lanes > 0 {
			drainAVX2(&dst[0], &src[0], lanes, s)
		}
	}
	drainGo(dst[lanes:], src[lanes:], s)
}

// maskBias runs affineBackward's ReLU mask (out nil: none) and bias
// gradient (db nil: none) over the c-wide rows of g (maskBiasGo): the
// kernel over each row's whole vectors, then the Go loop over the
// columns left. Every column still meets the rows in order.
func maskBias(g, out, db []float64, c int) {
	lanes := 0
	if laneKernel == kernelAVX2 && len(g) > 0 {
		if lanes = c &^ 3; lanes > 0 {
			// The kernel reads and writes len(g) elements of g and of
			// out, and c of db.
			var op, dp *float64
			if out != nil {
				op = &out[:len(g)][0]
			}
			if db != nil {
				dp = &db[:c][0]
			}
			maskBiasAVX2(&g[0], op, dp, len(g)/c, c, lanes)
		}
	}
	if lanes < c {
		maskBiasGo(g, out, db, c, lanes)
	}
}

// addAVX2 is addGo in train_amd64.s, four elements a vector; n is a
// multiple of 4.
//
//go:noescape
func addAVX2(dst, src *float64, n int)

// addScaledAVX2 is addScaledGo in train_amd64.s; n is a multiple of 4.
//
//go:noescape
func addScaledAVX2(dst, src *float64, n int, s float64)

// drainAVX2 is drainGo in train_amd64.s; n is a multiple of 4.
//
//go:noescape
func drainAVX2(dst, src *float64, n int, s float64)

// maskBiasAVX2 is maskBiasGo in train_amd64.s over the first n columns
// (a multiple of 4) of each of rows c-wide rows of the gradient gr (g
// names the goroutine register in Go's assembler); out and db may be nil.
//
//go:noescape
func maskBiasAVX2(gr, out, db *float64, rows, c, n int)
