package experiments

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"testing"

	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/parallel"
)

// TestHarnessSessionsPinned pins the session every harness method runs:
// one short tuning run per method name the experiments use, digested over
// its record log (task, schedule fingerprint, latency bits), its final
// latency and its clock total. The scale is shrunk and carries its own
// tag, so the process-wide dataset and pretrained caches never hand its
// entries to another test. A change to how the harness wires a method's
// policy, its sizing, model, online training, adaptation, bundle device,
// measurer or clock moves that method's digest.
func TestHarnessSessionsPinned(t *testing.T) {
	h := newHarness(Config{Seed: 5, Out: io.Discard, CacheDir: t.TempDir(), Pool: parallel.New(2)})
	h.sc.tag = "pin"
	h.sc.trials = 20
	h.sc.maxTasks = 1
	h.sc.datasetPerTask = 10
	h.sc.pretrainEpochs = 1
	fp32 := h.tasksOf(mustNet("bert_tiny"))
	fp16 := h.tasksOf(tcNet("bert_tiny", 1))
	cases := []struct {
		method method
		tasks  []*ir.Task
		digest string
	}{
		{mAnsor, fp32, "90ae73c084a5e741"},
		{mPruner, fp32, "5ea7222088dd9f44"},
		{mMoA, fp32, "4e5629814df4393c"},
		{mOF, fp32, "81b33477d521b0be"},
		{mNoLSE, fp32, "6da9dcd288a0cf12"},
		{mNoSF, fp32, "e72f9324989c9c76"},
		{mNoTDF, fp32, "a8e5561dc5a4d760"},
		{mTenSetMLP, fp32, "c2e68bcbcbb1360f"},
		{mTLP, fp32, "05f520fcdeda7924"},
		{mPrunerOffline, fp32, "f2815f87d394e363"},
		{mOfflineNoLSE, fp32, "e7ff76b55fc459ea"},
		{mMetaSchedule, fp16, "0e0d28118f463232"},
		{mPrunerTC, fp16, "e25069dff4a9995e"},
		{mRoller, fp32, "0f57caffb0393e6a"},
		{mAdatune, fp32, "2858c1700a41247b"},
		{mFelix, fp32, "7a63b74e6b1161c6"},
		{mTLM, fp32, "87cdcb85106ef5a2"},
	}
	ss := make([]session, len(cases))
	for i, c := range cases {
		ss[i] = session{device.A100, c.tasks, c.method, 7}
	}
	for i, res := range h.tuneAll(ss) {
		d := fnv.New64a()
		for _, r := range res.Records {
			fmt.Fprintf(d, "%s,%s,%x;", r.Task.ID, r.Sched.Fingerprint(), math.Float64bits(r.Latency))
		}
		fmt.Fprintf(d, "final:%x;clock:%x", math.Float64bits(res.FinalLatency), math.Float64bits(res.Clock.Total()))
		if got := fmt.Sprintf("%016x", d.Sum64()); got != cases[i].digest {
			t.Errorf("%s: session digest %s, pinned %s", cases[i].method.name, got, cases[i].digest)
		}
	}
}
