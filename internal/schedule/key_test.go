package schedule

import (
	"math/rand"
	"strings"
	"testing"

	"pruner/internal/device"
	"pruner/internal/ir"
)

// checkKey holds one pair of schedules to the identity contract: Same is
// fingerprint equality, equal schedules have equal keys, and
// CompareFingerprints orders as strings.Compare over the fingerprints.
func checkKey(t *testing.T, a, b *Schedule) {
	t.Helper()
	// Structural answers first, before either fingerprint is cached.
	same, ab, ba := a.Same(b), CompareFingerprints(a, b), CompareFingerprints(b, a)
	fa, fb := a.Fingerprint(), b.Fingerprint()
	if same != (fa == fb) {
		t.Fatalf("Same = %v for %q vs %q", same, fa, fb)
	}
	if same && a.Key() != b.Key() {
		t.Fatalf("equal schedules %q with keys %#x and %#x", fa, a.Key(), b.Key())
	}
	if want := strings.Compare(fa, fb); ab != want || ba != -want {
		t.Fatalf("CompareFingerprints(%q, %q) = %d, reversed %d; strings.Compare = %d", fa, fb, ab, ba, want)
	}
}

// fuzzFactors are the values a byte with its top bit set decodes to:
// decimal prefixes of one another, so the first differing field is often
// decided by the character written after it.
var fuzzFactors = [8]int{1, 12, 2, 120, 21, 1024, 102, 3}

func fuzzValue(b byte) int {
	if b&0x80 != 0 {
		return fuzzFactors[b&7]
	}
	return int(b)
}

// fuzzSchedule builds a schedule of shape (shape%4 spatial tiles,
// shape/4%3 reduction tiles) whose fields, in fingerprint order, are
// read cyclically from vals, then overwrites fields per (position, value)
// byte pair of edits.
func fuzzSchedule(shape byte, vals, edits []byte, flags byte) *Schedule {
	s := &Schedule{
		SpatialTiles: make([][NumSpatialLevels]int, shape%4),
		ReduceTiles:  make([][NumReduceLevels]int, shape/4%3),
		UseShared:    flags&1 != 0,
		TensorCore:   flags&2 != 0,
	}
	var fields []*int
	for i := range s.SpatialTiles {
		for j := range s.SpatialTiles[i] {
			fields = append(fields, &s.SpatialTiles[i][j])
		}
	}
	for i := range s.ReduceTiles {
		for j := range s.ReduceTiles[i] {
			fields = append(fields, &s.ReduceTiles[i][j])
		}
	}
	fields = append(fields, &s.UnrollStep, &s.VectorLen)
	for i, f := range fields {
		*f = 1
		if len(vals) > 0 {
			*f = fuzzValue(vals[i%len(vals)])
		}
	}
	for k := 0; k+1 < len(edits); k += 2 {
		*fields[int(edits[k])%len(fields)] = fuzzValue(edits[k+1])
	}
	return s
}

// FuzzScheduleKey builds pairs from one value stream: b is a's shape
// and values with b's own edits applied, so pairs are often equal or
// differ in one field.
func FuzzScheduleKey(f *testing.F) {
	one, twelve, two := byte(0x80), byte(0x81), byte(0x82)
	f.Add(byte(9), byte(9), []byte{4, 8, 2}, []byte{}, byte(1), byte(1))                      // equal
	f.Add(byte(9), byte(6), []byte{4, 8, 2}, []byte{}, byte(1), byte(1))                      // shapes differ
	f.Add(byte(1), byte(1), []byte{one}, []byte{4, twelve}, byte(0), byte(0))                 // 1 vs 12, a tile's last field
	f.Add(byte(1), byte(1), []byte{one}, []byte{0, twelve}, byte(0), byte(0))                 // 1 vs 12, not last
	f.Add(byte(5), byte(5), []byte{two}, []byte{2, twelve}, byte(1), byte(1))                 // 2 vs 12
	f.Add(byte(5), byte(5), []byte{two}, []byte{7, twelve}, byte(1), byte(1))                 // 2 vs 12 in a reduction tile's last field
	f.Add(byte(4), byte(4), []byte{one, twelve}, []byte{3, one, 4, twelve}, byte(0), byte(0)) // unroll and vector length
	f.Add(byte(9), byte(9), []byte{4, 8, 2}, []byte{}, byte(0), byte(1))                      // UseShared
	f.Add(byte(9), byte(9), []byte{4, 8, 2}, []byte{}, byte(3), byte(1))                      // TensorCore
	f.Fuzz(func(t *testing.T, shapeA, shapeB byte, vals, edits []byte, flagsA, flagsB byte) {
		checkKey(t, fuzzSchedule(shapeA, vals, nil, flagsA), fuzzSchedule(shapeB, vals, edits, flagsB))
	})
}

// TestScheduleKeyOnGeneratedPairs runs the same contract over what the
// draft actually compares: sampled schedules, their mutants and their
// crossovers, on a tiled and a TensorCore task.
func TestScheduleKeyOnGeneratedPairs(t *testing.T) {
	for _, task := range []*ir.Task{
		ir.NewConv2D(ir.Conv2DShape{N: 1, H: 56, W: 56, CI: 64, CO: 64, KH: 3, KW: 3, Stride: 1, Pad: 1}, ir.FP32, 1),
		ir.NewMatMul(512, 4096, 768, ir.FP16, 1),
	} {
		g := NewGenerator(task)
		g.MaxThreads = device.A100.MaxThreads
		g.TensorCore = task.TensorCoreEligible()
		rng := rand.New(rand.NewSource(3))
		pop := g.InitPopulation(rng, 200)
		for i, s := range pop {
			m := g.Mutate(rng, s)
			checkKey(t, s, m)
			checkKey(t, s, s.Clone())
			checkKey(t, m, g.Crossover(rng, m, pop[(i+1)%len(pop)]))
			checkKey(t, s, pop[(i+7)%len(pop)])
		}
	}
}
