package costmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pruner/internal/ir"
	"pruner/internal/nn"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
)

// learnedModel is the slice of Model the engine tests need: Predict plus
// access to the per-candidate reference forward.
type learnedModel interface {
	Model
	PoolUser
	MemoUser
}

func engineModels() map[string]struct {
	m   learnedModel
	one func(*schedule.Lowered) *nn.Tensor
} {
	mlp := NewTenSetMLP(11)
	pacm := NewPaCM(12)
	noSF := NewPaCMAblated(13, false, true)
	noTDF := NewPaCMAblated(14, true, false)
	tlp := NewTLP(15)
	return map[string]struct {
		m   learnedModel
		one func(*schedule.Lowered) *nn.Tensor
	}{
		"tensetmlp":   {mlp, mlp.forwardOne},
		"pacm":        {pacm, pacm.forwardOne},
		"pacm-no-sf":  {noSF, noSF.forwardOne},
		"pacm-no-tdf": {noTDF, noTDF.forwardOne},
		"tlp":         {tlp, tlp.forwardOne},
	}
}

func sampleSchedules(t *ir.Task, n int, seed int64) []*schedule.Schedule {
	gen := schedule.NewGenerator(t)
	return gen.InitPopulation(rand.New(rand.NewSource(seed)), n)
}

// TestPredictBatchedMatchesReference is the engine's acceptance contract:
// for every learned model, every pool width and pool widths that do not
// divide the candidate count, the batched Predict returns bitwise
// identical scores to the per-candidate reference path.
func TestPredictBatchedMatchesReference(t *testing.T) {
	tasks := []*ir.Task{
		ir.NewMatMul(256, 192, 128, ir.FP32, 1),
		ir.NewMatMul(128, 128, 256, ir.FP16, 0),
	}
	// Widths cover a sub-chunk pool, a ragged tail chunk and a multi-chunk
	// pool; worker counts cover serial and contended fan-out. (Kept lean:
	// the full matrix also runs under -race in CI.)
	for _, width := range []int{3, batchChunk + 17, 3 * batchChunk} {
		for _, task := range tasks {
			schs := sampleSchedules(task, width, 31)
			for name, tc := range engineModels() {
				for _, workers := range []int{1, 8} {
					pool := parallel.New(workers)
					tc.m.SetPool(pool)
					got := tc.m.Predict(task, schs)
					want := predictReference(pool, tc.m.Params(), task, schs, tc.one)
					if len(got) != len(want) {
						t.Fatalf("%s n=%d w=%d: %d scores want %d", name, width, workers, len(got), len(want))
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s task=%s n=%d workers=%d: score %d = %v, reference %v",
								name, task.Name, width, workers, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestPredictBatchedUsesMemo verifies the round-memo integration: with a
// memo installed, Predict resolves lowerings through it (filling it), and
// scores do not change.
func TestPredictBatchedUsesMemo(t *testing.T) {
	task := ir.NewMatMul(128, 128, 128, ir.FP32, 1)
	schs := sampleSchedules(task, 40, 33)
	m := NewPaCM(17)
	bare := m.Predict(task, schs)
	memo := schedule.NewMemo()
	m.SetMemo(memo)
	defer m.SetMemo(nil)
	memoized := m.Predict(task, schs)
	if memo.Len() == 0 {
		t.Fatal("Predict did not populate the installed memo")
	}
	for i := range bare {
		if math.Float64bits(bare[i]) != math.Float64bits(memoized[i]) {
			t.Fatalf("memoized score %d = %v, unmemoized %v", i, memoized[i], bare[i])
		}
	}
}

// TestPredictAfterFitStaysConsistent guards that the arena forward reads
// the live weights: training between Predict calls must be reflected.
func TestPredictAfterFitStaysConsistent(t *testing.T) {
	task := ir.NewMatMul(128, 128, 128, ir.FP32, 1)
	schs := sampleSchedules(task, 16, 35)
	m := NewTenSetMLP(19)
	before := m.Predict(task, schs)
	recs := make([]Record, len(schs))
	for i, s := range schs {
		recs[i] = Record{Task: task, Sched: s, Latency: 1e-4 * float64(i+1)}
	}
	m.Fit(recs, FitOptions{Epochs: 2})
	after := m.Predict(task, schs)
	want := predictReference(nil, m.Params(), task, schs, m.forwardOne)
	changed := false
	for i := range after {
		if math.Float64bits(after[i]) != math.Float64bits(want[i]) {
			t.Fatalf("post-fit score %d = %v, reference %v", i, after[i], want[i])
		}
		if after[i] != before[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("training did not change any prediction — stale weights?")
	}
}

// BenchmarkPredictBatched measures the verify-stage hot path: scoring one
// S_spec-sized draft set (512 candidates, the paper's setting), batched
// engine vs the per-candidate baseline it replaced. Both run on a serial
// pool so the comparison isolates the engine; the speedup compounds with
// the session's pool size.
func BenchmarkPredictBatched(b *testing.B) {
	task := ir.NewMatMul(512, 512, 512, ir.FP32, 1)
	schs := sampleSchedules(task, 512, 41)
	serial := parallel.New(1)
	for name, tc := range engineModels() {
		if name == "pacm-no-sf" || name == "pacm-no-tdf" {
			continue // ablations share the full model's path
		}
		tc.m.SetPool(serial)
		b.Run(fmt.Sprintf("%s/batched", name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tc.m.Predict(task, schs)
			}
		})
		// The deployed configuration: in a tuning round the draft stage has
		// already lowered every candidate into the round memo, so verify
		// pays featurization + inference only. The memo warm-up (lowering)
		// happens off the clock, as it does in a real round.
		b.Run(fmt.Sprintf("%s/batched+memo", name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				memo := schedule.NewMemo()
				for _, s := range schs {
					memo.Lower(task, s)
				}
				tc.m.SetMemo(memo)
				b.StartTimer()
				tc.m.Predict(task, schs)
			}
			tc.m.SetMemo(nil)
		})
		b.Run(fmt.Sprintf("%s/per-candidate", name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				predictReference(serial, tc.m.Params(), task, schs, tc.one)
			}
		})
	}
}
