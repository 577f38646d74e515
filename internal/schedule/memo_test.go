package schedule

import (
	"math/rand"
	"testing"

	"pruner/internal/ir"
)

// TestMemoRejectsCrossTaskUse: one memo serves every task — a fit's memo
// holds the records of every task it trains on — but it keys by schedule
// alone, so lowering one *Schedule under a second task must fail loudly
// instead of serving the first task's lowering.
func TestMemoRejectsCrossTaskUse(t *testing.T) {
	a := ir.NewMatMul(64, 64, 64, ir.FP32, 0)
	b := ir.NewMatMul(32, 32, 32, ir.FP32, 0)
	sa := NewGenerator(a).Random(rand.New(rand.NewSource(1)))
	sb := NewGenerator(b).Random(rand.New(rand.NewSource(2)))
	memo := NewMemo()
	if memo.Lower(a, sa).Task != a || memo.Lower(b, sb).Task != b || memo.Len() != 2 {
		t.Fatal("one memo must lower each task's schedules for that task")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("lowering a schedule under a second task should panic")
		}
	}()
	memo.Lower(b, sa)
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
