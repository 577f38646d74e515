package experiments

import "pruner/internal/device"

// Adaptive is the fixed-vs-adaptive budget comparison behind the
// ROADMAP's "Adaptive verify budget" item (DESIGN.md §14): the same
// Pruner sessions run twice at an equal Trials budget, once with the
// fixed per-round verify/measure batch and once with the
// calibration-driven controller (tuner.Options.AdaptBudget), which
// shrinks the measured batch, widens the LSE draft set and deepens the
// pipeline as the cost model proves calibrated. Rows report the final
// workload latency, how many candidates each session actually measured,
// and sampled tuning curves — the numbers EXPERIMENTS.md records. The
// offline-pretrained rows are the "well-modeled" candidates: where the
// pretrained verifier ranks near-perfectly the controller cuts
// measurements, and where it is merely decent (rank error above the
// controller's strict threshold) it holds the full fixed budget rather than
// trade away solution quality.
func Adaptive(cfg Config) error {
	hf := newHarness(cfg)
	ha := *hf
	ha.adaptBudget = true
	seed := hf.cfg.Seed

	rows := []struct {
		label, net string
		method     method
	}{
		{"resnet50/online", "resnet50", mPruner},
		{"resnet50/offline", "resnet50", mPrunerOffline},
		{"bert_tiny/offline", "bert_tiny", mPrunerOffline},
	}
	hf.printf("Adaptive speculation: fixed vs calibrated budgets at equal trials, A100 [%s]\n", hf.sc.tag)
	for _, row := range rows {
		tasks := mustNet(row.net).Representative(2)
		fixed := hf.tune(device.A100, tasks, row.method, seed)
		adapt := ha.tune(device.A100, tasks, row.method, seed)
		fm := len(fixed.Records) - fixed.Warm
		am := len(adapt.Records) - adapt.Warm
		hf.printf("%-18s fixed   : best %.3fms, %3d measured, %5.0fs sim\n",
			row.label, fixed.FinalLatency*1e3, fm, fixed.Clock.Total())
		hf.printf("%-18s adaptive: best %.3fms, %3d measured, %5.0fs sim (%+.0f%% measurements)\n",
			row.label, adapt.FinalLatency*1e3, am, adapt.Clock.Total(),
			100*float64(am-fm)/float64(fm))
		hf.printf("  fixed    curve:")
		for _, p := range sampleCurve(fixed.Curve, 6) {
			hf.printf(" (%.0fs,%.3fms)", p.SimSeconds, p.WorkloadLat*1e3)
		}
		hf.printf("\n  adaptive curve:")
		for _, p := range sampleCurve(adapt.Curve, 6) {
			hf.printf(" (%.0fs,%.3fms)", p.SimSeconds, p.WorkloadLat*1e3)
		}
		hf.printf("\n")
	}
	return nil
}
