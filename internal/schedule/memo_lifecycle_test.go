package schedule_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"pruner/internal/features"
	"pruner/internal/ir"
	"pruner/internal/schedule"
)

// The round memo's life cycle: drawn with NewMemo, filled by a round's
// lowerings and feature rows, handed back with Release and reused by the
// next round. `make memo-lifecycle` runs these under -race.

// families are the feature extractors whose rows a memo's chunks hold.
var families = []struct {
	name string
	rows func(*schedule.Lowered) [][]float64
}{
	{"statement", features.Statement},
	{"dataflow", features.Dataflow},
	{"primitives", features.Primitives},
}

// population is n seeded schedules of a task.
func population(task *ir.Task, seed int64, n int) []*schedule.Schedule {
	return schedule.NewGenerator(task).InitPopulation(rand.New(rand.NewSource(seed)), n)
}

// lowerRound lowers and featurizes every schedule through memo, the way
// a tuning round's draft and verify do.
func lowerRound(memo *schedule.Memo, task *ir.Task, schs []*schedule.Schedule) []*schedule.Lowered {
	lws := make([]*schedule.Lowered, len(schs))
	for i, s := range schs {
		lws[i] = memo.Lower(task, s)
		for _, f := range families {
			f.rows(lws[i])
		}
	}
	return lws
}

// sameAsHeap fails t unless lw is the lowering of (task, s) and, field
// by field and bit by bit, the heap one, feature rows included.
func sameAsHeap(t *testing.T, task *ir.Task, s *schedule.Schedule, lw *schedule.Lowered) {
	t.Helper()
	if lw.Task != task || lw.Sched != s {
		t.Fatalf("%s: lowering of another program", s.Fingerprint())
	}
	sameBits(t, lw, schedule.Lower(task, s))
}

// sameBits fails t unless lw and want agree field by field and bit by
// bit, and so do their rows of every feature family.
func sameBits(t *testing.T, lw, want *schedule.Lowered) {
	t.Helper()
	s := want.Sched
	scalars := func(l *schedule.Lowered) [8]uint64 {
		return [8]uint64{uint64(l.Blocks), uint64(l.ThreadsPerBlock), uint64(l.VThreads),
			math.Float64bits(l.RegsPerThread), math.Float64bits(l.ThreadCompute),
			math.Float64bits(l.SharedPerBlock), math.Float64bits(l.GlobalWords), math.Float64bits(l.TotalFlops)}
	}
	if scalars(lw) != scalars(want) || len(lw.Stmts) != len(want.Stmts) {
		t.Fatalf("%s: lowering differs from the heap one", s.Fingerprint())
	}
	for i := range want.Stmts {
		if lw.Stmts[i] != want.Stmts[i] {
			t.Fatalf("%s: statement %d differs from the heap lowering's", s.Fingerprint(), i)
		}
	}
	for _, f := range families {
		got, ref := f.rows(lw), f.rows(want)
		if len(got) != len(ref) {
			t.Fatalf("%s %s: %d rows, heap %d", s.Fingerprint(), f.name, len(got), len(ref))
		}
		for i := range ref {
			if len(got[i]) != len(ref[i]) {
				t.Fatalf("%s %s row %d: width %d, heap %d", s.Fingerprint(), f.name, i, len(got[i]), len(ref[i]))
			}
			for j := range ref[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(ref[i][j]) {
					t.Fatalf("%s %s [%d][%d]: %v, heap %v", s.Fingerprint(), f.name, i, j, got[i][j], ref[i][j])
				}
			}
		}
	}
}

// TestMemoSharesOneLoweringPerFingerprint: the memo hands every caller
// of one *Schedule the same *Lowered (so feature caches are shared),
// under concurrent access from pool workers. It keys by pointer: a
// structurally equal clone — one fingerprint, another schedule — misses
// and is lowered again, to the original's bits.
func TestMemoSharesOneLoweringPerFingerprint(t *testing.T) {
	task := ir.NewMatMul(128, 128, 128, ir.FP32, 1)
	schs := population(task, 5, 32)
	memo := schedule.NewMemo()
	first := lowerRound(memo, task, schs)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, s := range schs {
				if memo.Lower(task, s) != first[i] {
					t.Errorf("schedule %d: memo returned a different instance", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if memo.Len() != len(schs) {
		t.Fatalf("memo holds %d entries for %d schedules", memo.Len(), len(schs))
	}

	twin := memo.Lower(task, schs[0].Clone())
	if twin == first[0] || memo.Len() != len(schs)+1 {
		t.Fatal("a structurally equal clone hit the memo, which keys by pointer")
	}
	sameBits(t, twin, first[0])
	memo.Release()
}

// TestMemoReleasedRoundMatchesHeap: a round run on a released memo — its
// chunks NaN-poisoned at release — gives lowerings and feature rows
// bitwise equal to heap Lower plus features, and the memo drawn is the
// one just parked.
func TestMemoReleasedRoundMatchesHeap(t *testing.T) {
	defer schedule.SetPoisonOnRelease(schedule.SetPoisonOnRelease(true))
	task := convTask()
	memo := schedule.NewMemo()
	lowerRound(memo, task, population(task, 1, 300))
	memo.Release()

	again := schedule.NewMemo()
	if again != memo {
		t.Fatal("NewMemo did not draw the memo parked last")
	}
	schs := population(task, 2, 300)
	lws := lowerRound(again, task, schs)
	for i, s := range schs {
		sameAsHeap(t, task, s, lws[i])
	}
	again.Release()
}

// TestMemoReleasedServesAnotherTask: Release forgets the round's
// schedules, so Len counts from zero and the next round — here of
// another task — lowers into the recycled slots to the heap's bits.
func TestMemoReleasedServesAnotherTask(t *testing.T) {
	a := ir.NewMatMul(128, 128, 128, ir.FP32, 1)
	b := ir.NewElementwise(1<<14, 2, ir.FP32)
	memo := schedule.NewMemo()
	lowerRound(memo, a, population(a, 3, 40))
	memo.Release()

	memo = schedule.NewMemo()
	schs := population(b, 4, 40)
	lws := lowerRound(memo, b, schs)
	if memo.Len() > len(schs) || memo.Len() == 0 {
		t.Fatalf("Len %d after a round of %d schedules", memo.Len(), len(schs))
	}
	for i, s := range schs {
		sameAsHeap(t, b, s, lws[i])
	}
	memo.Release()
}

// TestMemoReleaseTwicePanics: a second Release, or a Lower after
// Release, panics rather than corrupting the next round's memo.
func TestMemoReleaseTwicePanics(t *testing.T) {
	task := ir.NewMatMul(64, 64, 64, ir.FP32, 0)
	s := population(task, 5, 1)[0]
	for _, c := range []struct {
		name string
		use  func(*schedule.Memo)
	}{
		{"Release", func(m *schedule.Memo) { m.Release() }},
		{"Lower", func(m *schedule.Memo) { m.Lower(task, s) }},
	} {
		memo := schedule.NewMemo()
		memo.Lower(task, s)
		memo.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Release did not panic", c.name)
				}
			}()
			c.use(memo)
		}()
		schedule.NewMemo() // draw it back off the free list
	}
}

// TestMemoSchedulesReleased: a generator bound to a memo carves the
// schedules it makes from the memo. Until Release each is Same as the
// heap generator's from the same seed; a poisoned Release zeroes every
// carved header, cached fingerprint included, and tile row, so a kept
// schedule moves its fingerprint and fails validation, and carving from
// the released memo panics.
func TestMemoSchedulesReleased(t *testing.T) {
	defer schedule.SetPoisonOnRelease(schedule.SetPoisonOnRelease(true))
	task := convTask()
	heap := schedule.NewGenerator(task)
	memo := schedule.NewMemo()
	bound := heap.WithMemo(memo)
	rng, ref := rand.New(rand.NewSource(8)), rand.New(rand.NewSource(8))
	var kept, want []*schedule.Schedule
	keep := func(got, w *schedule.Schedule) {
		if !got.Same(w) {
			t.Fatalf("schedule %d: carved %s, heap %s", len(kept), got.Fingerprint(), w.Fingerprint())
		}
		kept, want = append(kept, got), append(want, w)
	}
	for range 64 {
		keep(bound.Random(rng), heap.Random(ref))
	}
	for i := range 64 {
		keep(bound.Mutate(rng, kept[i]), heap.Mutate(ref, want[i]))
		keep(bound.Crossover(rng, kept[i], kept[63-i]), heap.Crossover(ref, want[i], want[63-i]))
	}
	type rows struct {
		sp [][schedule.NumSpatialLevels]int
		rd [][schedule.NumReduceLevels]int
	}
	tiles := make([]rows, len(kept))
	for i, s := range kept {
		s.Fingerprint() // cached in the carved header
		tiles[i] = rows{s.SpatialTiles, s.ReduceTiles}
	}
	memo.Release()

	for i, s := range kept {
		if s.Fingerprint() == want[i].Fingerprint() || s.Validate(task) == nil {
			t.Fatalf("schedule %d: still reads as %s after Release", i, want[i].Fingerprint())
		}
		for _, tile := range tiles[i].sp {
			if tile != [schedule.NumSpatialLevels]int{} {
				t.Fatalf("schedule %d: spatial tile %v after a poisoned Release", i, tile)
			}
		}
		for _, tile := range tiles[i].rd {
			if tile != [schedule.NumReduceLevels]int{} {
				t.Fatalf("schedule %d: reduce tile %v after a poisoned Release", i, tile)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("carving from a released memo did not panic")
		}
	}()
	bound.Random(rng)
}

// TestMemoConcurrentLowerAndRows: pool workers lowering overlapping
// candidates and featurizing them through one memo — its chunks carved
// under the lock, each slab zeroed outside it — are race-free and get
// the heap's bits.
func TestMemoConcurrentLowerAndRows(t *testing.T) {
	task := ir.NewMatMul(256, 256, 256, ir.FP32, 1)
	schs := population(task, 6, 200)
	for round := range 2 {
		memo := schedule.NewMemo()
		got := make([][]*schedule.Lowered, 4)
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[w] = make([]*schedule.Lowered, len(schs))
				for k := range schs {
					i := (k + w*len(schs)/len(got)) % len(schs)
					lw := memo.Lower(task, schs[i])
					for _, f := range families {
						f.rows(lw)
					}
					rows := lw.Rows(3, 5)
					rows[2][4] = float64(w) // private to this caller
					got[w][i] = lw
				}
			}()
		}
		wg.Wait()
		for i, s := range schs {
			for w := range got {
				if got[w][i] != got[0][i] {
					t.Fatalf("round %d, schedule %d: workers got different lowerings", round, i)
				}
			}
			sameAsHeap(t, task, s, got[0][i])
		}
		memo.Release()
	}
}

// TestAllocMemoRound: from the second round on, a memo lowers and
// featurizes without touching the heap — its Lowered slots, feature
// slabs and row headers all come from the chunks the first round grew.
func TestAllocMemoRound(t *testing.T) {
	task := convTask()
	schs := population(task, 7, 256)
	round := func() {
		memo := schedule.NewMemo()
		for _, s := range schs {
			lw := memo.Lower(task, s)
			for _, f := range families {
				f.rows(lw)
			}
		}
		memo.Release()
	}
	round() // grow the chunks and the map
	if avg := testing.AllocsPerRun(20, round); avg != 0 {
		t.Errorf("a warmed round of %d schedules: %v allocs per run, want 0", len(schs), avg)
	}
}

// convTask is a ResNet-50 3×3 convolution with a fused ReLU.
func convTask() *ir.Task {
	return ir.NewConv2D(ir.Conv2DShape{N: 1, H: 56, W: 56, CI: 64, CO: 64, KH: 3, KW: 3, Stride: 1, Pad: 1}, ir.FP32, 1)
}
