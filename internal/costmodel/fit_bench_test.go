package costmodel

import (
	"fmt"
	"testing"

	"pruner/internal/nn"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
)

// perRecordStep is the pre-engine training step: one small gradient graph
// per record, the LambdaRank loss over their scores, and each record's
// share of the score gradient sent back through its own graph, last
// record first.
func perRecordStep(one func(*schedule.Lowered) *nn.Tensor) stepFn {
	return func(lws []*schedule.Lowered, rel []float64) float64 {
		outs := make([]*nn.Tensor, len(lws))
		scores := nn.ZeroParam(len(lws), 1)
		for i, lw := range lws {
			outs[i] = one(lw)
			scores.Data[i] = outs[i].Data[0]
		}
		loss := nn.LambdaRankLoss(scores, rel)
		nn.Backward(loss)
		for i := len(outs) - 1; i >= 0; i-- {
			// x·g over a 1x1 x is a scalar whose gradient into x is g.
			g := nn.New(1, 1)
			g.Data[0] = scores.Grad[i]
			nn.Backward(nn.Affine(outs[i], g, nn.New(1, 1), false))
		}
		return loss.Data[0]
	}
}

// BenchmarkFit measures the online-training hot path: the data-parallel
// macro-batch engine (lowering each record once per call) against the
// retained pre-engine serial loop, for the two heaviest learned models,
// at the offline shape (16 tasks × 48 records, 4 epochs). The online case
// is an online tuning round's fit: PaCM over 2 tasks' 50 records for 8
// epochs, two groups a step, where the optimiser step after each
// fan-out is a large share of the fit. EXPERIMENTS.md records the
// before/after numbers; CI's bench-smoke keeps the harness alive. The
// fitted parameters at p=1 and p=8 are bitwise identical
// (TestFitDeterministicAcrossWorkers) — only wall-clock may move.
func BenchmarkFit(b *testing.B) {
	online := multiTaskRecords(b, 2, 25, 22)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("online/pacm/engine-p%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := NewPaCM(31)
				m.SetPool(parallel.New(workers))
				b.StartTimer()
				m.Fit(online, FitOptions{Epochs: 8, Seed: 2})
			}
		})
	}

	recs := multiTaskRecords(b, 16, 48, 21)
	opt := FitOptions{Epochs: 4, Seed: 2}

	builders := map[string]func() Model{
		"pacm": func() Model { return NewPaCM(31) },
		"tlp":  func() Model { return NewTLP(32) },
	}
	for _, kind := range []string{"pacm", "tlp"} {
		build := builders[kind]
		// The reference arm is the pre-engine path end to end: the serial
		// per-group-step loop driving the per-candidate forward (one small
		// graph per record, concatenated).
		b.Run(kind+"/reference", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := build()
				b.StartTimer()
				switch m := m.(type) {
				case *PaCM:
					rankFitReference(recs, opt, m.adam, perRecordStep(m.forwardOne), m.seed)
				case *TLP:
					rankFitReference(recs, opt, m.adam, perRecordStep(m.forwardOne), m.seed)
				}
			}
		})
		for _, workers := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/engine-p%d", kind, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					m := build()
					m.(PoolUser).SetPool(parallel.New(workers))
					b.StartTimer()
					m.Fit(recs, opt)
				}
			})
		}
	}
}
