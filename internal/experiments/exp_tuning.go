package experiments

import (
	"math"

	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/tuner"
	"pruner/internal/vendorlib"
	"pruner/internal/workloads"
)

// Table1 reproduces the Ansor tuning-cost breakdown on Orin (exploration /
// training / measurement minutes for 2,000 trials).
func Table1(cfg Config) error {
	h := newHarness(cfg)
	h.printf("Table 1: Ansor tuning cost (min, extrapolated to 2000 trials) on Orin [%s]\n", h.sc.tag)
	h.printf("%-14s %12s %12s %12s\n", "Ansor", "Exploration", "Training", "Measurement")
	f := h.fullTrialFactor()
	nets := []string{"resnet50", "detr", "inception_v3"}
	ss := make([]session, len(nets))
	for i, name := range nets {
		ss[i] = session{device.Orin, h.tasksOf(mustNet(name)), mAnsor, cfg.Seed}
	}
	for i, res := range h.tuneAll(ss) {
		c := res.Clock
		h.printf("%-14s %12.1f %12.1f %12.1f\n",
			nets[i], minutes(c.Exploration*f), minutes(c.Training*f), minutes(c.Measurement*f))
	}
	return nil
}

// fig6Online and fig6Offline are the tuning-curve series of Figure 6.
var fig6Online = []method{mAnsor, mPruner, mMoA}
var fig6Offline = []method{mTenSetMLP, mTLP, mPrunerOffline}

// Fig6 reproduces the workload tuning curves in online and offline
// cost-model tuning modes across the three platforms.
func Fig6(cfg Config) error {
	h := newHarness(cfg)
	nets := []string{"resnet50"}
	if cfg.Full {
		nets = []string{"resnet50", "vit", "deeplab_v3", "bert_base"}
	}
	devs := []*device.Device{device.A100, device.Orin, device.TitanV}
	h.printf("Figure 6: tuning curves (search time s -> workload latency ms) [%s]\n", h.sc.tag)
	// Every (network, device, mode, method) series is an independent
	// session: enumerate them, fan them out, print in enumeration order.
	type combo struct {
		netName, mode string
		method        method
		dev           *device.Device
	}
	var combos []combo
	var ss []session
	for _, netName := range nets {
		tasks := h.tasksOf(mustNet(netName))
		for _, dev := range devs {
			for _, mode := range []struct {
				label   string
				methods []method
			}{{"online", fig6Online}, {"offline", fig6Offline}} {
				// Scaled mode runs the offline methods on the A100 only.
				if !cfg.Full && mode.label == "offline" && dev != device.A100 {
					continue
				}
				for _, m := range mode.methods {
					combos = append(combos, combo{netName, mode.label, m, dev})
					ss = append(ss, session{dev, tasks, m, cfg.Seed})
				}
			}
		}
	}
	results := h.tuneAll(ss)
	for i, c := range combos {
		h.printf("%s %s %s %s:", c.netName, c.dev.Name, c.mode, c.method.name)
		for _, p := range sampleCurve(results[i].Curve, 8) {
			h.printf(" (%.0fs,%.3fms)", p.SimSeconds, p.WorkloadLat*1e3)
		}
		h.printf("\n")
	}
	return nil
}

// Fig7 reproduces the search-time comparison on A100: how fast Pruner /
// MoA-Pruner reach each baseline's final best.
func Fig7(cfg Config) error {
	h := newHarness(cfg)
	nets := []string{"resnet50", "bert_tiny"}
	if cfg.Full {
		nets = []string{"resnet50", "wide_resnet50", "mobilenet_v2", "densenet121",
			"inception_v3", "vit", "detr", "deeplab_v3", "bert_base", "bert_tiny"}
	}
	h.printf("Figure 7: search-time speedup to reach baseline best (A100) [%s]\n", h.sc.tag)
	h.printf("%-16s %10s %14s %12s %10s\n", "network", "vs-ansor", "vs-moa(ansor)", "vs-tensetmlp", "vs-tlp")
	var sAnsor, sMoA, sTen, sTLP []float64
	methods := []method{mAnsor, mPruner, mMoA, mTenSetMLP, mTLP, mPrunerOffline}
	var ss []session
	for _, name := range nets {
		tasks := h.tasksOf(mustNet(name))
		for _, m := range methods {
			ss = append(ss, session{device.A100, tasks, m, cfg.Seed})
		}
	}
	results := h.tuneAll(ss)
	for ni, name := range nets {
		row := results[ni*len(methods) : (ni+1)*len(methods)]
		ansor, pruner, moa, tenset, tlp, poff := row[0], row[1], row[2], row[3], row[4], row[5]

		spAnsor := speedupToReach(ansor.Clock.Total(), pruner, ansor.FinalLatency)
		spMoA := speedupToReach(ansor.Clock.Total(), moa, ansor.FinalLatency)
		spTen := speedupToReach(tenset.Clock.Total(), poff, tenset.FinalLatency)
		spTLP := speedupToReach(tlp.Clock.Total(), poff, tlp.FinalLatency)
		sAnsor = append(sAnsor, spAnsor)
		sMoA = append(sMoA, spMoA)
		sTen = append(sTen, spTen)
		sTLP = append(sTLP, spTLP)
		h.printf("%-16s %9.2fx %13.2fx %11.2fx %9.2fx\n", name, spAnsor, spMoA, spTen, spTLP)
	}
	h.printf("%-16s %9.2fx %13.2fx %11.2fx %9.2fx\n", "geomean",
		geomean(sAnsor), geomean(sMoA), geomean(sTen), geomean(sTLP))
	return nil
}

// speedupToReach is baselineSeconds / (time for res to reach target); capped
// when the target is never reached.
func speedupToReach(baselineSeconds float64, res interface {
	WorkloadLatencyAt(float64) float64
}, target float64) float64 {
	at := res.WorkloadLatencyAt(target * 1.02) // 2% tolerance, as in tuning-curve reads
	if math.IsInf(at, 1) || at <= 0 {
		return 1
	}
	return baselineSeconds / at
}

// Table5 compares MoA-Pruner at the standard budget with Ansor given 3-5x
// more trials, plus TenSet's transfer strategy, on A100.
func Table5(cfg Config) error {
	h := newHarness(cfg)
	type row struct {
		net        string
		ansorScale int // trials multiplier for the Ansor column
	}
	rows := []row{{"resnet50", 3}, {"bert_tiny", 2}}
	if cfg.Full {
		rows = []row{{"resnet50", 5}, {"inception_v3", 5}, {"bert_base", 3}, {"bert_tiny", 3}}
	}
	f := h.fullTrialFactor()
	h.printf("Table 5: MoA-Pruner (1x trials) vs Ansor (more trials) vs TenSet transfer on A100 [%s]\n", h.sc.tag)
	h.printf("%-14s %7s | %9s %9s | %9s %9s | %9s %9s\n",
		"model", "trials", "ansor-ms", "cost-min", "tenset-ms", "cost-min", "moa-ms", "cost-min")
	for _, r := range rows {
		tasks := h.tasksOf(mustNet(r.net))
		saved := h.sc.trials
		h.sc.trials = saved * r.ansorScale
		ansor := h.tune(device.A100, tasks, mAnsor, cfg.Seed)
		h.sc.trials = saved
		tenset := h.tune(device.A100, tasks, mTenSetMLP, cfg.Seed)
		moa := h.tune(device.A100, tasks, mMoA, cfg.Seed)
		h.printf("%-14s %7.0f | %9.3f %9.0f | %9.3f %9.0f | %9.3f %9.0f\n",
			r.net, math.Round(float64(h.sc.trials*r.ansorScale)*f),
			ansor.FinalLatency*1e3, minutes(ansor.Clock.Total()*f),
			tenset.FinalLatency*1e3, minutes(tenset.Clock.Total()*f),
			moa.FinalLatency*1e3, minutes(moa.Clock.Total()*f))
	}
	return nil
}

// fig8Failures marks the (method, network) pairs that fail to tune, per
// §6.1: Adatune lacks ConvTranspose2d, Felix trips on irregular shapes,
// TLM only supports subgraphs from its pretraining corpus.
var fig8Failures = map[string]map[string]bool{
	"adatune": {"dcgan": true},
	"felix":   {"dcgan": true, "detr": true},
	"tlm":     {"vit": true, "llama": true},
}

// Fig8 compares Pruner with Adatune, Felix and TLM on A100.
func Fig8(cfg Config) error {
	h := newHarness(cfg)
	nets := []string{"resnet50", "dcgan", "llama"}
	if cfg.Full {
		nets = []string{"resnet50", "inception_v3", "mobilenet_v2", "densenet121",
			"vit", "detr", "bert_tiny", "dcgan", "llama"}
	}
	methods := []method{mAdatune, mFelix, mTLM, mMoA}
	h.printf("Figure 8: normalized performance vs more tensor compilers (A100) [%s]\n", h.sc.tag)
	h.printf("%-16s", "network")
	for _, m := range methods {
		h.printf(" %12s", m.name)
	}
	h.printf("\n")
	speedups := map[string][]float64{}
	for _, name := range nets {
		tasks := h.tasksOf(mustNet(name))
		lat := map[string]float64{}
		best := math.Inf(1)
		for _, m := range methods {
			if fig8Failures[m.name][name] || (m.name == "adatune" && hasKind(tasks, ir.ConvTranspose2D)) {
				lat[m.name] = math.Inf(1)
				continue
			}
			res := h.tune(device.A100, tasks, m, cfg.Seed)
			lat[m.name] = res.FinalLatency
			if res.FinalLatency < best {
				best = res.FinalLatency
			}
		}
		h.printf("%-16s", name)
		for _, m := range methods {
			if math.IsInf(lat[m.name], 1) {
				h.printf(" %12s", "x")
				continue
			}
			h.printf(" %12.3f", best/lat[m.name])
			if m.name != "moa-pruner" {
				speedups[m.name] = append(speedups[m.name], lat[m.name]/lat["moa-pruner"])
			}
		}
		h.printf("\n")
	}
	for _, m := range []string{"tlm", "felix", "adatune"} {
		h.printf("avg speedup of MoA-Pruner over %-8s: %.2fx\n", m, geomean(speedups[m]))
	}
	return nil
}

func hasKind(tasks []*ir.Task, kind ir.OpKind) bool {
	for _, t := range tasks {
		if t.Kind == kind {
			return true
		}
	}
	return false
}

// Table6 compares against Roller on Titan V.
func Table6(cfg Config) error {
	h := newHarness(cfg)
	nets := []string{"resnet50", "bert_large"}
	h.printf("Table 6: workload latency (ms) vs Roller on TITAN V [%s]\n", h.sc.tag)
	h.printf("%-14s %10s %10s %10s %12s\n", "model", "pytorch", "roller", "ansor", "moa-pruner")
	for _, name := range nets {
		net := mustNet(name)
		tasks := h.tasksOf(net)
		pt := vendorlib.NetworkLatency(vendorlib.PyTorch, device.TitanV, net)
		roller := h.tune(device.TitanV, tasks, mRoller, cfg.Seed)
		ansor := h.tune(device.TitanV, tasks, mAnsor, cfg.Seed)
		moa := h.tune(device.TitanV, tasks, mMoA, cfg.Seed)
		h.printf("%-14s %10.3f %10.3f %10.3f %12.3f\n",
			name, pt*1e3, roller.FinalLatency*1e3, ansor.FinalLatency*1e3, moa.FinalLatency*1e3)
	}
	return nil
}

// Fig9 compares with off-the-shelf inference frameworks on A100.
func Fig9(cfg Config) error {
	h := newHarness(cfg)
	nets := []string{"resnet50", "mobilenet_v2", "bert_tiny", "dcgan"}
	if cfg.Full {
		nets = []string{"resnet50", "mobilenet_v2", "inception_v3", "densenet121",
			"vit", "detr", "bert_tiny", "dcgan", "llama", "gpt2"}
	}
	h.printf("Figure 9: normalized performance vs frameworks (A100) [%s]\n", h.sc.tag)
	h.printf("%-16s %10s %10s %10s %12s\n", "network", "pytorch", "triton", "tensorrt", "moa-pruner")
	speedup := map[string][]float64{}
	for _, name := range nets {
		net := mustNet(name)
		lat := map[string]float64{
			"pytorch":  vendorlib.NetworkLatency(vendorlib.PyTorch, device.A100, net),
			"triton":   vendorlib.NetworkLatency(vendorlib.Triton, device.A100, net),
			"tensorrt": vendorlib.NetworkLatency(vendorlib.TensorRT, device.A100, net),
		}
		res := h.tune(device.A100, h.tasksOf(net), mMoA, cfg.Seed)
		// Scaled runs tune only the representative tasks; account for the
		// untuned remainder at framework-kernel latency so network totals
		// stay comparable.
		lat["moa-pruner"] = res.FinalLatency + untunedRemainder(net, h.tasksOf(net), device.A100)
		best := math.Inf(1)
		for _, l := range lat {
			if l < best {
				best = l
			}
		}
		h.printf("%-16s %10.3f %10.3f %10.3f %12.3f\n",
			name, best/lat["pytorch"], best/lat["triton"], best/lat["tensorrt"], best/lat["moa-pruner"])
		for _, fw := range []string{"pytorch", "triton", "tensorrt"} {
			speedup[fw] = append(speedup[fw], lat[fw]/lat["moa-pruner"])
		}
	}
	for _, fw := range []string{"pytorch", "triton", "tensorrt"} {
		h.printf("avg speedup of MoA-Pruner over %-9s: %.2fx\n", fw, geomean(speedup[fw]))
	}
	return nil
}

// sampleCurve downsamples a tuning curve to at most n points (always
// keeping the last), skipping the pre-coverage +Inf prefix.
func sampleCurve(curve []tuner.CurvePoint, n int) []tuner.CurvePoint {
	var valid []tuner.CurvePoint
	for _, p := range curve {
		if !math.IsInf(p.WorkloadLat, 1) {
			valid = append(valid, p)
		}
	}
	if len(valid) <= n {
		return valid
	}
	out := make([]tuner.CurvePoint, 0, n)
	step := float64(len(valid)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		out = append(out, valid[int(float64(i)*step)])
	}
	return out
}

// Fig10 evaluates long-context Llama decoding (batch 32) against
// frameworks and compilers, plus the 1K-context tuning curve.
func Fig10(cfg Config) error {
	h := newHarness(cfg)
	contexts := []string{"llama_decode1k"}
	if cfg.Full {
		contexts = []string{"llama_decode1k", "llama_decode4k"}
	}
	h.printf("Figure 10: Llama decode (bs=32) normalized performance (A100) [%s]\n", h.sc.tag)
	h.printf("%-16s %9s %8s %9s %7s %7s %11s\n",
		"context", "pytorch", "triton", "tensorrt", "ansor", "felix", "moa-pruner")
	for _, name := range contexts {
		net := mustNet(name)
		tasks := h.tasksOf(net)
		lat := map[string]float64{
			"pytorch":  vendorlib.NetworkLatency(vendorlib.PyTorch, device.A100, net),
			"triton":   vendorlib.NetworkLatency(vendorlib.Triton, device.A100, net),
			"tensorrt": vendorlib.NetworkLatency(vendorlib.TensorRT, device.A100, net),
		}
		rest := untunedRemainder(net, tasks, device.A100)
		for _, m := range []method{mAnsor, mFelix, mMoA} {
			res := h.tune(device.A100, tasks, m, cfg.Seed)
			lat[m.name] = res.FinalLatency + rest
		}
		best := math.Inf(1)
		for _, l := range lat {
			if l < best {
				best = l
			}
		}
		h.printf("%-16s %9.3f %8.3f %9.3f %7.3f %7.3f %11.3f\n", name,
			best/lat["pytorch"], best/lat["triton"], best/lat["tensorrt"],
			best/lat["ansor"], best/lat["felix"], best/lat["moa-pruner"])
	}
	// Tuning curve, Ansor vs MoA-Pruner on the 1K decode.
	net := mustNet("llama_decode1k")
	tasks := h.tasksOf(net)
	for _, m := range []method{mAnsor, mMoA} {
		res := h.tune(device.A100, tasks, m, cfg.Seed+5)
		h.printf("curve llama-1k %s:", m.name)
		for _, p := range sampleCurve(res.Curve, 8) {
			h.printf(" (%.0fs,%.3fms)", p.SimSeconds, p.WorkloadLat*1e3)
		}
		h.printf("\n")
	}
	return nil
}

// fig11Ops are the single-operator cases: 3 matmuls, 4 stride-1 convs and
// 4 stride-2 convs with irregular shapes, as in §6.2. M-2 is the
// large-K/small-output case where PyTorch's splitK wins.
func fig11Ops() []*ir.Task {
	conv := func(h, w, ci, co, k, stride int) *ir.Task {
		return ir.NewConv2D(ir.Conv2DShape{N: 1, H: h, W: w, CI: ci, CO: co, KH: k, KW: k, Stride: stride, Pad: k / 2}, ir.FP32, 0)
	}
	return []*ir.Task{
		ir.NewMatMul(960, 770, 1200, ir.FP32, 0),  // M-1
		ir.NewMatMul(64, 96, 6144, ir.FP32, 0),    // M-2 (splitK regime)
		ir.NewMatMul(1536, 1024, 768, ir.FP32, 0), // M-3
		conv(58, 58, 96, 160, 3, 1),               // C1-1
		conv(30, 30, 210, 255, 3, 1),              // C1-2
		conv(120, 120, 36, 48, 5, 1),              // C1-3
		conv(14, 14, 510, 512, 3, 1),              // C1-4
		conv(112, 112, 30, 64, 3, 2),              // C2-1
		conv(56, 56, 96, 190, 3, 2),               // C2-2
		conv(36, 36, 255, 330, 5, 2),              // C2-3
		conv(28, 28, 384, 512, 3, 2),              // C2-4
	}
}

// Fig11 tunes single operators with random shapes (800 trials, no
// pretraining) against PyTorch and Ansor on A100.
func Fig11(cfg Config) error {
	h := newHarness(cfg)
	ops := fig11Ops()
	labels := []string{"M-1", "M-2", "M-3", "C1-1", "C1-2", "C1-3", "C1-4", "C2-1", "C2-2", "C2-3", "C2-4"}
	if !cfg.Full {
		ops = append(ops[:4:4], ops[7])
		labels = append(labels[:4:4], labels[7])
	}
	saved := h.sc.trials
	h.sc.trials = h.sc.opTrials
	defer func() { h.sc.trials = saved }()
	h.printf("Figure 11: single-operator normalized performance (A100) [%s]\n", h.sc.tag)
	h.printf("%-6s %10s %10s %10s\n", "op", "pytorch", "ansor", "pruner")
	ss := make([]session, 0, 2*len(ops))
	for _, op := range ops {
		ss = append(ss,
			session{device.A100, []*ir.Task{op}, mAnsor, cfg.Seed},
			session{device.A100, []*ir.Task{op}, mPruner, cfg.Seed})
	}
	results := h.tuneAll(ss)
	for i, op := range ops {
		pt := vendorlib.TaskLatency(vendorlib.PyTorch, device.A100, op)
		ansor := results[2*i].FinalLatency
		pr := results[2*i+1].FinalLatency
		best := math.Min(pt, math.Min(ansor, pr))
		h.printf("%-6s %10.3f %10.3f %10.3f\n", labels[i], best/pt, best/ansor, best/pr)
	}
	return nil
}

// Table7 reports end-to-end compilation time (minutes, 2,000-trial
// equivalent) of Ansor, Pruner and MoA-Pruner on Titan V.
func Table7(cfg Config) error {
	h := newHarness(cfg)
	nets := []string{"resnet50", "vit"}
	if cfg.Full {
		nets = []string{"resnet50", "inception_v3", "vit", "deeplab_v3", "bert_base"}
	}
	f := h.fullTrialFactor()
	h.printf("Table 7: compilation time (min, 2000-trial equivalent) on TITAN V [%s]\n", h.sc.tag)
	h.printf("%-12s", "method")
	for _, n := range nets {
		h.printf(" %12s", n)
	}
	h.printf("\n")
	totals := map[string][]float64{}
	methods := []method{mAnsor, mPruner, mMoA}
	var ss []session
	for _, m := range methods {
		for _, n := range nets {
			ss = append(ss, session{device.TitanV, h.tasksOf(mustNet(n)), m, cfg.Seed})
		}
	}
	results := h.tuneAll(ss)
	for mi, m := range methods {
		h.printf("%-12s", m.name)
		for ni := range nets {
			mins := minutes(results[mi*len(nets)+ni].Clock.Total() * f)
			totals[m.name] = append(totals[m.name], mins)
			h.printf(" %12.1f", mins)
		}
		h.printf("\n")
	}
	h.printf("avg Pruner/Ansor time: %.1f%%  MoA-Pruner/Ansor: %.1f%%\n",
		100*geomean(totals["pruner"])/geomean(totals["ansor"]),
		100*geomean(totals["moa-pruner"])/geomean(totals["ansor"]))
	return nil
}

// untunedRemainder prices the network tasks outside the tuned subset at
// cudaLib kernel latency, so scaled sessions (which tune only the
// representative tasks) stay comparable to whole-network framework
// latencies.
func untunedRemainder(net *workloads.Network, tuned []*ir.Task, dev *device.Device) float64 {
	tunedSet := map[string]bool{}
	for _, t := range tuned {
		tunedSet[t.ID] = true
	}
	var rest float64
	for _, t := range net.Tasks {
		if tunedSet[t.ID] {
			continue
		}
		rest += float64(t.Weight) * vendorlib.TaskLatency(vendorlib.CudaLib, dev, t)
	}
	return rest
}
