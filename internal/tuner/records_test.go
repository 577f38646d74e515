package tuner

import (
	"math"
	"math/rand"
	"testing"

	"pruner/internal/costmodel"
	"pruner/internal/ir"
	"pruner/internal/schedule"
)

func sampleRecords(t *testing.T) ([]*ir.Task, []costmodel.Record) {
	t.Helper()
	a := ir.NewMatMul(128, 128, 128, ir.FP32, 1)
	b := ir.NewConv2D(ir.Conv2DShape{
		N: 1, H: 28, W: 28, CI: 64, CO: 64, KH: 3, KW: 3, Stride: 1, Pad: 1,
	}, ir.FP32, 0)
	rng := rand.New(rand.NewSource(1))
	var recs []costmodel.Record
	for i, task := range []*ir.Task{a, b, a} {
		g := schedule.NewGenerator(task)
		lat := float64(i+1) * 1e-4
		if i == 2 {
			lat = math.Inf(1) // a failed build
		}
		recs = append(recs, costmodel.Record{Task: task, Sched: g.Random(rng), Latency: lat})
	}
	return []*ir.Task{a, b}, recs
}

func TestBestByTask(t *testing.T) {
	tasks, recs := sampleRecords(t)
	best := BestByTask(recs)
	if len(best) != 2 {
		t.Fatalf("%d best entries, want 2", len(best))
	}
	if best[tasks[0].ID].Latency != 1e-4 {
		t.Fatalf("best matmul latency %g", best[tasks[0].ID].Latency)
	}
}
