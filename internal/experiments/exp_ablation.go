package experiments

import (
	"pruner/internal/device"
)

// table12Methods are the online-ablation rows of Table 12.
var table12Methods = []struct {
	label  string
	method method
}{
	{"Ansor", mAnsor},
	{"w/o LSE", mNoLSE},
	{"w/o S.F.", mNoSF},
	{"w/o T.D.F", mNoTDF},
	{"w/o MoA", mPruner},
	{"w/ O-F", mOF},
	{"MoA-Pruner", mMoA},
}

// Table12 ablates the online tuning mode: removing LSE, either PaCM
// feature branch, MoA, or replacing MoA with plain online fine-tuning.
func Table12(cfg Config) error {
	h := newHarness(cfg)
	nets := []string{"resnet50", "bert_tiny"}
	if cfg.Full {
		nets = []string{"resnet50", "inception_v3", "vit", "deeplab_v3", "bert_tiny"}
	}
	h.printf("Table 12: online-mode ablation, final latency (ms) on TITAN V [%s]\n", h.sc.tag)
	h.printf("%-12s", "method")
	for _, n := range nets {
		h.printf(" %12s", n)
	}
	h.printf("\n")
	for _, row := range table12Methods {
		h.printf("%-12s", row.label)
		for _, n := range nets {
			res := h.tune(device.TitanV, h.tasksOf(mustNet(n)), row.method, cfg.Seed)
			h.printf(" %12.3f", res.FinalLatency*1e3)
		}
		h.printf("\n")
	}
	return nil
}

// Table13 ablates LSE in the offline mode (well-pretrained cost model):
// even with a strong verifier, drafting still cuts compilation cost.
func Table13(cfg Config) error {
	h := newHarness(cfg)
	nets := []string{"resnet50", "bert_tiny"}
	if cfg.Full {
		nets = []string{"resnet50", "inception_v3", "bert_base", "bert_tiny"}
	}
	f := h.fullTrialFactor()
	h.printf("Table 13: offline-mode ablation on A100 [%s]\n", h.sc.tag)
	h.printf("%-14s | %12s %9s | %12s %9s\n", "model", "w/oLSE-ms", "cost-min", "offline-ms", "cost-min")
	for _, n := range nets {
		tasks := h.tasksOf(mustNet(n))
		noLSE := h.tune(device.A100, tasks, mOfflineNoLSE, cfg.Seed)
		off := h.tune(device.A100, tasks, mPrunerOffline, cfg.Seed)
		h.printf("%-14s | %12.3f %9.0f | %12.3f %9.0f\n", n,
			noLSE.FinalLatency*1e3, minutes(noLSE.Clock.Total()*f),
			off.FinalLatency*1e3, minutes(off.Clock.Total()*f))
	}
	return nil
}

// Fig16 prints the ResNet-50 ablation tuning curves on Titan V.
func Fig16(cfg Config) error {
	h := newHarness(cfg)
	tasks := h.tasksOf(mustNet("resnet50"))
	methods := []struct {
		label  string
		method method
	}{
		{"Ansor", mAnsor},
		{"w/o LSE", mNoLSE},
		{"w/o S.F.", mNoSF},
		{"w/o T.D.F.", mNoTDF},
		{"w/o MoA", mPruner},
		{"MoA-Pruner", mMoA},
	}
	h.printf("Figure 16: ResNet-50 ablation tuning curves on TITAN V [%s]\n", h.sc.tag)
	for _, m := range methods {
		res := h.tune(device.TitanV, tasks, m.method, cfg.Seed)
		h.printf("%-12s:", m.label)
		for _, p := range sampleCurve(res.Curve, 8) {
			h.printf(" (%.0fs,%.3fms)", p.SimSeconds, p.WorkloadLat*1e3)
		}
		h.printf("\n")
	}
	return nil
}
