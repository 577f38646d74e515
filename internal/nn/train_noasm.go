//go:build !amd64 || purego

package nn

// The gradient adds (train.go): without the assembly, the Go loops.

func addInto(dst, src []float64)                  { addGo(dst, src) }
func addScaledInto(dst, src []float64, s float64) { addScaledGo(dst, src, s) }
func drainInto(dst, src []float64, s float64)     { drainGo(dst, src, s) }
func maskBias(g, out, db []float64, c int)        { maskBiasGo(g, out, db, c, 0) }
