//go:build amd64 && !purego

package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestAdamLanesMatchGo checks the AVX2 lane kernel of Adam's update
// against the Go loop, bit for bit, in an avx2 subtest (SKIP naming the
// missing ISA on a host without it): over lengths with and without a
// Go-run tail, gradients, moments and weights drawn half from adamEdge
// (±0, subnormals, ±Inf, NaNs of several payloads), three steps in a row
// so NaNs of different payloads meet, and clipping off (scale 1), on
// (a fractional scale) and at an infinite norm (scale 0).
func TestAdamLanesMatchGo(t *testing.T) {
	t.Run(kernelNames[kernelAVX2], func(t *testing.T) {
		needKernel(t, kernelAVX2)
		rng := rand.New(rand.NewSource(92))
		for _, n := range []int{1, 3, 4, 7, 8, 9, 15, 17, 31, 33, 100, 2049} {
			for _, scale := range []float64{1, 0.37, 0} {
				name := fmt.Sprintf("n=%d scale=%g", n, scale)
				p, g := adamEdgeVector(rng, n, false), adamEdgeVector(rng, n, false)
				m, v := adamEdgeVector(rng, n, false), adamEdgeVector(rng, n, true)
				parts := [4]string{"weights", "gradients", "m", "v"}
				want := [4][]float64{slices.Clone(p), g, slices.Clone(m), slices.Clone(v)}
				got := [4][]float64{slices.Clone(p), g, slices.Clone(m), slices.Clone(v)}
				for step := 1; step <= 3; step++ {
					k := adamConsts{scale: scale, beta1: 0.9, omb1: 1 - 0.9, beta2: 0.999, omb2: 1 - 0.999, lr: 7e-4,
						b1c: 1 - math.Pow(0.9, float64(step)), b2c: 1 - math.Pow(0.999, float64(step)), eps: 1e-8}
					adamGo(want[0], want[1], want[2], want[3], &k)
					onLaneKernel(kernelAVX2, func() { adamUpdate(got[0], got[1], got[2], got[3], &k) })
					for _, i := range []int{0, 2, 3} {
						bitsEqual(t, fmt.Sprintf("%s step %d %s", name, step, parts[i]), got[i], want[i])
					}
				}
			}
		}
	})
}

// onLaneKernel runs f with the update forced to kernel.
func onLaneKernel(kernel int, f func()) {
	defer func(prev int) { laneKernel = prev }(laneKernel)
	laneKernel = kernel
	f()
}

// BenchmarkAdamUpdate times the update over PaCM's ~45 k parameters on
// the Go loop and the AVX2 kernel, named by the kernel that ran.
func BenchmarkAdamUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(94))
	const n = 45000
	p, g := make([]float64, n), make([]float64, n)
	m, v := make([]float64, n), make([]float64, n)
	for i := range p {
		p[i], g[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	k := adamConsts{scale: 1, beta1: 0.9, omb1: 1 - 0.9, beta2: 0.999, omb2: 1 - 0.999, lr: 7e-4, b1c: 0.1, b2c: 0.001, eps: 1e-8}
	for _, kernel := range []int{kernelGo, kernelAVX2} {
		b.Run(kernelNames[kernel], func(b *testing.B) {
			needKernel(b, kernel)
			onLaneKernel(kernel, func() {
				for i := 0; i < b.N; i++ {
					adamUpdate(p, g, m, v, &k)
				}
			})
		})
	}
}
