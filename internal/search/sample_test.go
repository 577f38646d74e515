package search

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// walkRef is nextGeneration's parent draw as it was written before the
// prefix sums: subtract each rank's weight from r in turn and take the
// first rank where nothing is left.
func walkRef(r float64, weights []float64) int {
	for i, w := range weights {
		r -= w
		if r <= 0 {
			return i
		}
	}
	return len(weights) - 1
}

// TestSampleMatchesSequentialScan: the guarded binary search picks the
// walk's index on a million random draws per population size and on
// every draw within 64 ulps of a prefix-sum boundary — the draws where
// an unguarded search and the walk round differently.
func TestSampleMatchesSequentialScan(t *testing.T) {
	for _, n := range []int{1, 2, 21, 240, 512, 1600, 2000, 2112} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			t.Parallel()
			sampleMatchesWalk(t, n)
		})
	}
}

func sampleMatchesWalk(t *testing.T, n int) {
	weights := make([]float64, n)
	var sum float64
	for i := range weights {
		weights[i] = 1 / math.Sqrt(float64(i+1))
		sum += weights[i]
	}
	s := newRankSampler(n)
	if s.sum() != sum {
		t.Fatalf("n=%d: sampler total %v, walk total %v", n, s.sum(), sum)
	}
	check := func(r float64) {
		if got, want := s.pick(r), walkRef(r, weights); got != want {
			t.Fatalf("n=%d: r=%v (%#x) picks %d, the walk %d", n, r, math.Float64bits(r), got, want)
		}
	}
	rng := rand.New(rand.NewSource(int64(n)))
	for k := 0; k < 1_000_000; k++ {
		check(rng.Float64() * sum)
	}
	for _, p := range s.prefix {
		check(p)
		up, down := p, p
		for k := 0; k < 64; k++ {
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, 0)
			if up <= sum {
				check(up)
			}
			check(down)
		}
	}
	check(0)
}
