package dataset

import (
	"context"
	"testing"

	"pruner/internal/costmodel"
	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/schedule"
)

// predictSet scores all entries of a task set with a model.
func predictSet(m costmodel.Model, s *TaskSet) []float64 {
	scheds := make([]*schedule.Schedule, len(s.Entries))
	for i := range s.Entries {
		scheds[i] = s.Entries[i].Sched
	}
	return m.Predict(s.Task, scheds)
}

// TestCalibrationModelOrdering checks the core substitution claim of
// DESIGN.md §7: on a held-out task split, PaCM (dataflow features) must
// rank better than the statement-feature MLP, and both far better than
// random — the paper's Table 11 ordering.
func TestCalibrationModelOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("training is slow")
	}
	dev := device.T4
	trainTasks := []*ir.Task{
		ir.NewMatMul(256, 1024, 512, ir.FP32, 1),
		ir.NewConv2D(ir.Conv2DShape{N: 1, H: 28, W: 28, CI: 128, CO: 256, KH: 3, KW: 3, Stride: 1, Pad: 1}, ir.FP32, 1),
		ir.NewBatchMatMul(12, 128, 128, 64, ir.FP32, 0),
		ir.NewConv2D(ir.Conv2DShape{N: 1, H: 56, W: 56, CI: 64, CO: 64, KH: 1, KW: 1, Stride: 1, Pad: 0}, ir.FP32, 1),
	}
	testTasks := []*ir.Task{
		ir.NewMatMul(512, 768, 768, ir.FP32, 1),
		ir.NewConv2D(ir.Conv2DShape{N: 1, H: 14, W: 14, CI: 256, CO: 512, KH: 3, KW: 3, Stride: 1, Pad: 1}, ir.FP32, 1),
	}
	train := Generate(context.Background(), dev, trainTasks, GenOptions{SchedulesPerTask: 400, Seed: 11})
	test := Generate(context.Background(), dev, testTasks, GenOptions{SchedulesPerTask: 400, Seed: 12})

	fit := costmodel.FitOptions{Epochs: 40, Seed: 5}
	top1 := func(m costmodel.Model) float64 {
		m.Fit(train.Records(), fit)
		return test.TopK(1, func(s *TaskSet) []float64 { return predictSet(m, s) })
	}
	randTop1 := test.TopK(1, func(s *TaskSet) []float64 {
		return predictSet(costmodel.NewRandom(3), s)
	})
	mlpTop1 := top1(costmodel.NewTenSetMLP(21))
	pacmTop1 := top1(costmodel.NewPaCM(22))

	t.Logf("Top-1: random=%.3f mlp=%.3f pacm=%.3f", randTop1, mlpTop1, pacmTop1)
	if mlpTop1 <= randTop1 {
		t.Errorf("MLP Top-1 (%.3f) should beat random (%.3f)", mlpTop1, randTop1)
	}
	if pacmTop1 <= randTop1 {
		t.Errorf("PaCM Top-1 (%.3f) should beat random (%.3f)", pacmTop1, randTop1)
	}
	if pacmTop1 < mlpTop1-0.02 {
		t.Errorf("PaCM Top-1 (%.3f) should not trail MLP (%.3f)", pacmTop1, mlpTop1)
	}
}
