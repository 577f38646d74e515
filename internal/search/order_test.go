package search

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/schedule"
)

// The GA and PriorFilter orderings decide which parents breed and which
// drafts survive, so a session's RNG stream hangs on them. These tests pin
// them on the inputs where a sort could legally differ — tied and infinite
// scores — against orders recorded at 3b542ba, when every one of them was a
// sort.SliceStable call, and against that call itself on random ties.

var (
	inf     = math.Inf(1)
	negZero = math.Copysign(0, -1)
)

// orderScores has every tie class a draft round produces: unbuildable
// programs at -Inf, duplicates of one fitness, +0 against -0, and +Inf.
var orderScores = []float64{1, inf, 1, -inf, 2, 1, inf, -inf, 2, 0, negZero, 2}

// orderCands pairs orderScores with distinct schedules whose fingerprints
// are deliberately not in input order (the unroll step runs backwards).
func orderCands() ([]scored, map[*schedule.Schedule]int) {
	cands := make([]scored, len(orderScores))
	index := map[*schedule.Schedule]int{}
	for i, sc := range orderScores {
		s := &schedule.Schedule{
			SpatialTiles: [][schedule.NumSpatialLevels]int{{1, 1, 1, 1, 1}},
			UnrollStep:   len(orderScores) - i,
			VectorLen:    1,
		}
		cands[i] = scored{sch: s, score: sc}
		index[s] = i
	}
	return cands, index
}

func indices(cands []scored, index map[*schedule.Schedule]int) []int {
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = index[c.sch]
	}
	return out
}

func TestTopKOrderPinned(t *testing.T) {
	cands, index := orderCands()
	rankStable(cands)
	got := indices(cands[:9], index)
	want := []int{1, 6, 4, 8, 11, 0, 2, 5, 9} // recorded at 3b542ba
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rankStable order %v, want %v", got, want)
	}
}

func TestPruneSpecSurvivorsPinned(t *testing.T) {
	cands, index := orderCands()
	spec := newSpecSet(len(cands))
	for _, c := range cands {
		spec.add(c)
	}
	// k = 7 cuts through the three-way tie at score 1: the survivors of a
	// tie are the smallest fingerprints, whatever order they were added in.
	pruneSpec(spec, 7)
	var got []int
	for _, c := range spec.list {
		got = append(got, index[c.sch])
	}
	sort.Ints(got)
	want := []int{0, 1, 2, 4, 6, 8, 11} // recorded at 3b542ba: "u10" < "u12" < "u7" drops input 5
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("pruneSpec kept %v, want %v", got, want)
	}
}

func TestNextGenerationOrderPinned(t *testing.T) {
	task := ir.NewMatMul(512, 512, 512, ir.FP32, 1)
	ctx := newCtx(task, device.A100, 21)
	pop := ctx.Gen.InitPopulation(ctx.RNG, 240)
	cands := make([]scored, len(pop))
	index := map[*schedule.Schedule]int{}
	for i, s := range pop {
		cands[i] = scored{sch: s, score: orderScores[i%len(orderScores)]}
		index[s] = i
	}
	next := nextGeneration(ctx, EvoParams{Population: 240, MutateProb: 0.85, CrossProb: 0.05}, cands)

	// nextGeneration ranks cands in place: stable, so each tie class keeps
	// its input order.
	order := indices(cands, index)
	for i := 1; i < len(cands); i++ {
		a, b := cands[i-1], cands[i]
		if a.score < b.score || (a.score == b.score && order[i-1] > order[i]) {
			t.Fatalf("rank %d: (score %g, input %d) before (score %g, input %d)", i, a.score, order[i-1], b.score, order[i])
		}
	}
	// Which parents were drawn, and so every later RNG draw, follows from
	// that order: the bred population is pinned whole.
	h := fnv.New64a()
	for _, s := range next {
		_, _ = h.Write([]byte(s.Fingerprint()))
	}
	if got, want := h.Sum64(), uint64(0x8960b375206fb065); got != want { // recorded at 3b542ba
		t.Fatalf("bred population hash %#016x, want %#016x", got, want)
	}
}

// TestOrderingsMatchSliceStable compares the rankings with the
// sort.SliceStable calls they replaced on random score vectors drawn from
// a five-value alphabet (so nearly every comparison is a tie).
func TestOrderingsMatchSliceStable(t *testing.T) {
	alphabet := []float64{-inf, 0, 1, 2, inf}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		cands := make([]scored, n)
		for i := range cands {
			cands[i] = scored{
				sch: &schedule.Schedule{
					SpatialTiles: [][schedule.NumSpatialLevels]int{{1 + rng.Intn(1000), 1, 1, 1, 1}},
					UnrollStep:   i,
					VectorLen:    1,
				},
				score: alphabet[rng.Intn(len(alphabet))],
			}
		}
		k := 1 + rng.Intn(n)

		// rankStable: stable by score alone.
		ref := append([]scored(nil), cands...)
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].score > ref[j].score })
		got := append([]scored(nil), cands...)
		rankStable(got)
		for i := range got {
			if got[i].sch != ref[i].sch {
				t.Fatalf("trial %d: rankStable[%d] differs from sort.SliceStable", trial, i)
			}
		}

		// Rankings drained from a map: (score desc, fingerprint asc).
		sort.SliceStable(ref, func(i, j int) bool {
			if ref[i].score != ref[j].score {
				return ref[i].score > ref[j].score
			}
			return ref[i].sch.Fingerprint() < ref[j].sch.Fingerprint()
		})
		spec := newSpecSet(n)
		for _, c := range cands {
			spec.add(c)
		}
		// The full ranking RunLSE and evolve return ...
		for i, c := range drainRanked(spec) {
			if c.sch != ref[i].sch {
				t.Fatalf("trial %d: drainRanked[%d] differs from sort.SliceStable", trial, i)
			}
		}
		// ... and the PriorFilter cut of it, from any arrangement.
		rng.Shuffle(len(spec.list), func(i, j int) { spec.list[i], spec.list[j] = spec.list[j], spec.list[i] })
		pruneSpec(spec, k)
		if len(spec.list) != k {
			t.Fatalf("trial %d: pruneSpec left %d of %d, want %d", trial, len(spec.list), n, k)
		}
		for _, c := range ref[:k] {
			if !slices.ContainsFunc(spec.list, func(e scored) bool { return e.sch == c.sch }) {
				t.Fatalf("trial %d: pruneSpec dropped a top-%d entry (score %g)", trial, k, c.score)
			}
		}
	}
}
