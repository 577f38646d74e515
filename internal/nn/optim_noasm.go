//go:build !amd64 || purego

package nn

// adamUpdate runs the update (optim.go): without the assembly, the Go
// loop.
func adamUpdate(p, g, m, v []float64, k *adamConsts) { adamGo(p, g, m, v, k) }
