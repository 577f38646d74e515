package experiments

import (
	"math"
	"math/rand"
	"sort"

	"pruner/internal/analyzer"
	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/schedule"
	"pruner/internal/simulator"
	"pruner/internal/tuner"
)

// AblationSAvsOracle quantifies the draft model's gap to ground truth:
// pairwise ranking accuracy of the Symbol-based Analyzer against the
// simulator, and the Best-1 of its top picks — the price of Eq. 1's
// additive compute+memory model versus overlapped execution.
func AblationSAvsOracle(cfg Config) error {
	h := newHarness(cfg)
	tasks := []*ir.Task{
		ir.NewMatMul(512, 512, 512, ir.FP32, 1),
		ir.NewConv2D(ir.Conv2DShape{N: 1, H: 28, W: 28, CI: 128, CO: 256, KH: 3, KW: 3, Stride: 1, Pad: 1}, ir.FP32, 1),
		ir.NewBatchMatMul(12, 128, 128, 64, ir.FP32, 0),
	}
	dev := device.A100
	sim := simulator.New(dev)
	a := analyzer.New(dev)
	rng := rand.New(rand.NewSource(cfg.Seed))
	h.printf("Ablation: Symbol-based Analyzer vs simulator ground truth (A100)\n")
	h.printf("%-40s %10s %10s\n", "task", "pair-acc", "best1@64")
	for _, t := range tasks {
		g := schedule.NewGenerator(t)
		g.MaxSharedWords = dev.SharedPerBlock
		pool := g.InitPopulation(rng, 400)
		type cand struct{ sa, truth float64 }
		var cands []cand
		for _, s := range pool {
			lat, err := sim.Latency(t, s)
			if err != nil {
				continue
			}
			cands = append(cands, cand{sa: a.EstimateLatency(schedule.Lower(t, s)), truth: lat})
		}
		var agree, total float64
		for i := range cands {
			for j := i + 1; j < len(cands); j++ {
				total++
				if (cands[i].sa < cands[j].sa) == (cands[i].truth < cands[j].truth) {
					agree++
				}
			}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].sa < cands[j].sa })
		best := math.Inf(1)
		bestTop := math.Inf(1)
		for i, c := range cands {
			if c.truth < best {
				best = c.truth
			}
			if i < 64 && c.truth < bestTop {
				bestTop = c.truth
			}
		}
		h.printf("%-40s %10.3f %10.3f\n", t.Name, agree/total, best/bestTop)
	}
	return nil
}

// AblationMomentum sweeps MoA's momentum coefficient m on a small online
// tuning session, comparing against plain fine-tuning (m=0 would be
// re-initialising from the fine-tuned weights every round).
func AblationMomentum(cfg Config) error {
	h := newHarness(cfg)
	tasks := h.tasksOf(mustNet("bert_tiny"))
	h.printf("Ablation: MoA momentum sweep on bert_tiny (A100) [%s]\n", h.sc.tag)
	h.printf("%-12s %12s\n", "momentum", "final-ms")
	ms := []float64{0.9, 0.99, 0.999}
	ss := make([]session, 0, len(ms)+1)
	for _, m := range ms {
		sweep := mMoA
		sweep.deviate = func(o *tuner.Options, _ *device.Device) { o.Momentum = m }
		ss = append(ss, session{device.A100, tasks, sweep, cfg.Seed})
	}
	ss = append(ss, session{device.A100, tasks, mOF, cfg.Seed})
	res := h.tuneAll(ss)
	for i, m := range ms {
		h.printf("%-12.3f %12.4f\n", m, res[i].FinalLatency*1e3)
	}
	h.printf("%-12s %12.4f\n", "O-F (none)", res[len(ms)].FinalLatency*1e3)
	return nil
}
