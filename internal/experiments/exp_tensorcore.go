package experiments

import (
	"math"

	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/vendorlib"
	"pruner/internal/workloads"
)

// tcLLMs are the half-precision TensorCore benchmarks of §6.4.
var tcLLMs = []string{"bert_tiny", "bert_base", "gpt2", "llama", "opt", "mistral"}

func tcNet(name string, batch int) *workloads.Network {
	net, err := workloads.LLM(name, batch, 128, ir.FP16)
	if err != nil {
		panic(err)
	}
	return net
}

// Fig12 compares Pruner with MetaSchedule, Triton and PyTorch on the A100
// TensorCore for six LLMs at batch sizes 1 and 4.
func Fig12(cfg Config) error {
	h := newHarness(cfg)
	names := []string{"bert_tiny", "gpt2"}
	batches := []int{1}
	if cfg.Full {
		names = tcLLMs
		batches = []int{1, 4}
	}
	h.printf("Figure 12: normalized performance on A100 TensorCore (FP16) [%s]\n", h.sc.tag)
	h.printf("%-12s %3s %9s %8s %14s %8s\n", "model", "bs", "pytorch", "triton", "metaschedule", "pruner")
	var msRatio, ptRatio, trRatio []float64
	for _, bs := range batches {
		for _, name := range names {
			net := tcNet(name, bs)
			tasks := h.tasksOf(net)
			rest := untunedRemainder(net, tasks, device.A100)
			lat := map[string]float64{
				"pytorch": vendorlib.NetworkLatency(vendorlib.PyTorch, device.A100, net),
				"triton":  vendorlib.NetworkLatency(vendorlib.Triton, device.A100, net),
			}
			for _, m := range []method{mMetaSchedule, mPrunerTC} {
				res := h.tune(device.A100, tasks, m, cfg.Seed)
				lat[m.name] = res.FinalLatency + rest
			}
			best := math.Inf(1)
			for _, l := range lat {
				if l < best {
					best = l
				}
			}
			h.printf("%-12s %3d %9.3f %8.3f %14.3f %8.3f\n", name, bs,
				best/lat["pytorch"], best/lat["triton"], best/lat["metaschedule"], best/lat["pruner-tc"])
			msRatio = append(msRatio, lat["metaschedule"]/lat["pruner-tc"])
			ptRatio = append(ptRatio, lat["pytorch"]/lat["pruner-tc"])
			trRatio = append(trRatio, lat["triton"]/lat["pruner-tc"])
		}
	}
	h.printf("avg Pruner speedup: vs MetaSchedule %.2fx, vs PyTorch %.2fx, vs Triton %.2fx\n",
		geomean(msRatio), geomean(ptRatio), geomean(trRatio))
	return nil
}

// table8Ops are the four GPT-2 linear operators (bs=1, prefill 128).
func table8Ops() []*ir.Task {
	return []*ir.Task{
		ir.NewMatMul(128, 2304, 768, ir.FP16, 1),
		ir.NewMatMul(128, 768, 768, ir.FP16, 1),
		ir.NewMatMul(128, 3072, 768, ir.FP16, 1),
		ir.NewMatMul(128, 768, 3072, ir.FP16, 1),
	}
}

// Table8 compares cudaLib (with its splitK choice) against Pruner on the
// GPT-2 linear operators over TensorCore.
func Table8(cfg Config) error {
	h := newHarness(cfg)
	saved := h.sc.trials
	h.sc.trials = h.sc.opTrials
	defer func() { h.sc.trials = saved }()
	h.printf("Table 8: GPT-2 linear op latency (us) on A100 TensorCore [%s]\n", h.sc.tag)
	h.printf("%-4s %-22s %10s %7s %10s\n", "id", "shape", "cudaLib", "splitK", "pruner")
	for i, op := range table8Ops() {
		lib, algo := vendorlib.OpLatency(device.A100, op)
		res := h.tune(device.A100, []*ir.Task{op}, mPrunerTC, cfg.Seed)
		split := "w/o"
		if algo == "splitK" {
			split = "w"
		}
		h.printf("%-4d m%d n%d k%-14d %10.2f %7s %10.2f\n", i+1,
			op.MetaVal("m"), op.MetaVal("n"), op.MetaVal("k"),
			lib*1e6, split, res.FinalLatency*1e6)
	}
	return nil
}

// Table9 measures Pruner's search speedup over MetaSchedule: the time for
// Pruner to reach MetaSchedule's final best.
func Table9(cfg Config) error {
	h := newHarness(cfg)
	names := []string{"bert_tiny", "gpt2"}
	batches := []int{1}
	if cfg.Full {
		names = tcLLMs
		batches = []int{1, 4}
	}
	h.printf("Table 9: search speedup vs MetaSchedule on A100 TensorCore [%s]\n", h.sc.tag)
	h.printf("%-12s", "bs\\model")
	for _, n := range names {
		h.printf(" %10s", n)
	}
	h.printf("\n")
	var all []float64
	for _, bs := range batches {
		h.printf("(%d, 128)   ", bs)
		for _, name := range names {
			tasks := h.tasksOf(tcNet(name, bs))
			ms := h.tune(device.A100, tasks, mMetaSchedule, cfg.Seed)
			pr := h.tune(device.A100, tasks, mPrunerTC, cfg.Seed)
			sp := speedupToReach(ms.Clock.Total(), pr, ms.FinalLatency)
			all = append(all, sp)
			h.printf(" %9.2fx", sp)
		}
		h.printf("\n")
	}
	h.printf("average search speedup: %.2fx\n", geomean(all))
	return nil
}

// fig13Ops are the Llama decoding operators of Figure 13 (bs=32, 1K
// context): the fixed linear projections and the KV-cache attention
// matmuls.
func fig13Ops() []struct {
	label string
	task  *ir.Task
} {
	const (
		bs     = 32
		hidden = 768
		inter  = 3072
		heads  = 12
		ctx    = 1024
	)
	return []struct {
		label string
		task  *ir.Task
	}{
		{"proj_qkvo", ir.NewMatMul(bs, hidden, hidden, ir.FP16, 1)},
		{"proj_gate_up", ir.NewMatMul(bs, inter, hidden, ir.FP16, 1)},
		{"proj_down", ir.NewMatMul(bs, hidden, inter, ir.FP16, 1)},
		{"qkT_1k", ir.NewBatchMatMul(bs*heads, 1, ctx, hidden/heads, ir.FP16, 0)},
		{"attnV_1k", ir.NewBatchMatMul(bs*heads, 1, hidden/heads, ctx, ir.FP16, 0)},
	}
}

// Fig13 compares per-operator decode performance on the A100 TensorCore:
// cudaLib (splitK on the large-reduction linears), Triton, MetaSchedule
// and Pruner.
func Fig13(cfg Config) error {
	h := newHarness(cfg)
	ops := fig13Ops()
	if !cfg.Full {
		ops = ops[:3]
	}
	saved := h.sc.trials
	h.sc.trials = h.sc.opTrials
	defer func() { h.sc.trials = saved }()
	h.printf("Figure 13: Llama decode ops, normalized performance on A100 TensorCore [%s]\n", h.sc.tag)
	h.printf("%-14s %9s %8s %14s %8s\n", "op", "cudaLib", "triton", "metaschedule", "pruner")
	for _, op := range ops {
		lib, _ := vendorlib.OpLatency(device.A100, op.task)
		tri := vendorlib.TaskLatency(vendorlib.Triton, device.A100, op.task)
		ms := h.tune(device.A100, []*ir.Task{op.task}, mMetaSchedule, cfg.Seed).FinalLatency
		pr := h.tune(device.A100, []*ir.Task{op.task}, mPrunerTC, cfg.Seed).FinalLatency
		best := math.Min(math.Min(lib, tri), math.Min(ms, pr))
		h.printf("%-14s %9.3f %8.3f %14.3f %8.3f\n", op.label, best/lib, best/tri, best/ms, best/pr)
	}
	return nil
}
