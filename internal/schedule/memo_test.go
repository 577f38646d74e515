package schedule

import (
	"math/rand"
	"sync"
	"testing"

	"pruner/internal/ir"
)

// TestMemoSharesOneLoweringPerFingerprint: the memo must hand every
// caller the same *Lowered for one schedule structure — one fingerprint —
// (so feature caches are shared) and be safe under concurrent access
// from pool workers.
func TestMemoSharesOneLoweringPerFingerprint(t *testing.T) {
	task := ir.NewMatMul(128, 128, 128, ir.FP32, 1)
	gen := NewGenerator(task)
	rng := rand.New(rand.NewSource(5))
	schs := gen.InitPopulation(rng, 32)
	memo := NewMemo()

	first := make([]*Lowered, len(schs))
	for i, s := range schs {
		first[i] = memo.Lower(task, s)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, s := range schs {
				if got := memo.Lower(task, s); got != first[i] {
					t.Errorf("schedule %d: memo returned a different instance", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if memo.Len() > len(schs) {
		t.Fatalf("memo holds %d entries for %d schedules", memo.Len(), len(schs))
	}

	// Clones are structurally equal, so they must share the memoized
	// program.
	c := schs[0].Clone()
	if memo.Lower(task, c) != first[0] {
		t.Fatal("structurally equal clone missed the memo")
	}
}

// TestMemoRejectsCrossTaskUse: the cache keys by schedule structure
// alone, so sharing a memo across tasks must fail loudly instead of
// serving another task's lowering.
func TestMemoRejectsCrossTaskUse(t *testing.T) {
	a := ir.NewMatMul(64, 64, 64, ir.FP32, 0)
	b := ir.NewMatMul(32, 32, 32, ir.FP32, 0)
	memo := NewMemo()
	memo.Lower(a, NewGenerator(a).Random(rand.New(rand.NewSource(1))))
	defer func() {
		if recover() == nil {
			t.Fatal("cross-task memo use should panic")
		}
	}()
	memo.Lower(b, NewGenerator(b).Random(rand.New(rand.NewSource(2))))
}

// TestMemoNilDegradesToLower: call sites never special-case "no memo".
func TestMemoNilDegradesToLower(t *testing.T) {
	task := ir.NewMatMul(64, 64, 64, ir.FP32, 0)
	s := NewGenerator(task).Random(rand.New(rand.NewSource(7)))
	var m *Memo
	lw := m.Lower(task, s)
	if lw == nil || lw.Sched != s {
		t.Fatal("nil memo must lower directly")
	}
	if m.Len() != 0 {
		t.Fatal("nil memo reports entries")
	}
}

// TestFeatureRowsCachedOnce: FeatureRows computes each family once per
// Lowered, shares the result, and isolates slots.
func TestFeatureRowsCachedOnce(t *testing.T) {
	task := ir.NewMatMul(64, 64, 64, ir.FP32, 0)
	s := NewGenerator(task).Random(rand.New(rand.NewSource(9)))
	lw := Lower(task, s)
	calls := 0
	compute := func(*Lowered) [][]float64 {
		calls++
		return [][]float64{{1, 2}}
	}
	a := lw.FeatureRows(0, compute)
	b := lw.FeatureRows(0, compute)
	if calls != 1 {
		t.Fatalf("compute ran %d times", calls)
	}
	if &a[0][0] != &b[0][0] {
		t.Fatal("cached feature rows not shared")
	}
	other := lw.FeatureRows(1, func(*Lowered) [][]float64 { return [][]float64{{3}} })
	if other[0][0] != 3 {
		t.Fatal("slots must be independent")
	}
}
