package experiments

import (
	"context"
	"io"
	"os"
	"strings"
	"testing"

	"pruner/internal/device"
	"pruner/internal/tuner"
)

func TestScaleParameters(t *testing.T) {
	full := scaleOf(true)
	if full.trials != 2000 || full.specSize != 512 {
		t.Fatalf("full scale must use the paper's parameters, got %+v", full)
	}
	// Ansor's evolutionary budget must reach the paper's ~8000 model
	// evaluations per round at full scale.
	if full.evoPop*full.evoGens < 8000 {
		t.Fatalf("full Ansor budget %d evaluations/round, want >= 8000", full.evoPop*full.evoGens)
	}
	sc := scaleOf(false)
	if sc.trials >= full.trials || sc.specSize >= full.specSize {
		t.Fatal("scaled mode must be smaller than full mode")
	}
}

// TestFastExperimentsRun executes the dataset-metric experiments end to
// end (they complete in seconds) and checks they produce the expected
// table headers.
func TestFastExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment execution")
	}
	for _, tc := range []struct {
		id   string
		want string
	}{
		{"fig14", "Best-k"},
		{"table10", "Best-1"},
	} {
		var sb strings.Builder
		cfg := Config{Seed: 7, Out: &sb, CacheDir: t.TempDir()}
		run, _ := Lookup(tc.id)
		if err := run(cfg); err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		if !strings.Contains(sb.String(), tc.want) {
			t.Errorf("%s output missing %q:\n%s", tc.id, tc.want, sb.String())
		}
	}
}

func TestHarnessDefaults(t *testing.T) {
	h := newHarness(Config{Out: io.Discard})
	if h.cfg.Seed == 0 || h.cfg.CacheDir == "" {
		t.Fatal("defaults not applied")
	}
	if f := h.fullTrialFactor(); f <= 1 {
		t.Fatalf("scaled mode should extrapolate trials, factor %g", f)
	}
	hf := newHarness(Config{Full: true, Out: io.Discard})
	if hf.fullTrialFactor() != 1 {
		t.Fatal("full mode must not extrapolate")
	}
}

func TestPretrainTasksDeduplicated(t *testing.T) {
	h := newHarness(Config{Out: io.Discard})
	tasks := h.pretrainTasks()
	if len(tasks) < 10 {
		t.Fatalf("only %d pretraining tasks", len(tasks))
	}
	seen := map[string]bool{}
	for _, task := range tasks {
		if seen[task.ID] {
			t.Fatalf("duplicate pretraining task %s", task.Name)
		}
		seen[task.ID] = true
	}
}

func TestFig11OpsCoverPaperCases(t *testing.T) {
	ops := fig11Ops()
	if len(ops) != 11 {
		t.Fatalf("fig11 needs 11 ops (3 matmul + 8 conv), got %d", len(ops))
	}
	// M-2 must be the splitK regime: deep K, small output.
	m2 := ops[1]
	if m2.Meta["k"] < 2048 || m2.Meta["m"]*m2.Meta["n"] > 64*128 {
		t.Fatal("M-2 is not a splitK-regime GEMM")
	}
}

// TestTuneAllMatchesSerial checks the suite-level fan-out: running the
// same session list on one worker and on four must print identical rows,
// because sessions are independently seeded and results are returned in
// input order.
func TestTuneAllMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs tuning sessions")
	}
	run := func(parallelism int) []*tuner.Result {
		h := newHarness(Config{Seed: 7, Out: io.Discard, Parallelism: parallelism})
		h.sc.trials = 30
		h.sc.maxTasks = 1
		tasks := h.tasksOf(mustNet("bert_tiny"))
		return h.tuneAll([]session{
			{device.A100, tasks, mAnsor, 7},
			{device.A100, tasks, mPruner, 7},
			{device.T4, tasks, mPruner, 8},
			{device.A100, tasks, mRoller, 9},
		})
	}
	serial := run(1)
	wide := run(4)
	for i := range serial {
		if serial[i].FinalLatency != wide[i].FinalLatency {
			t.Fatalf("session %d final latency differs: %g vs %g",
				i, serial[i].FinalLatency, wide[i].FinalLatency)
		}
		if serial[i].Clock != wide[i].Clock {
			t.Fatalf("session %d clock differs: %+v vs %+v", i, serial[i].Clock, wide[i].Clock)
		}
	}
}

// cancelled returns a context that is already done: sessions run under it
// stop at their first round, so a runner's printed frame costs nothing.
func cancelled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestTable5TrialsColumn checks the Ansor trials column is the paper's
// budget, 2,000 trials times the row's multiplier, in scaled mode too:
// the extrapolation factor 2000/120 must not be truncated before it
// multiplies. Its weights, pretrained on a dataset the cancellation cut
// short, must not reach the cache.
func TestTable5TrialsColumn(t *testing.T) {
	var sb strings.Builder
	dir := t.TempDir()
	if err := Table5(Config{Seed: 7, Out: &sb, CacheDir: dir, Ctx: cancelled()}); err != nil {
		t.Fatal(err)
	}
	if cached, _ := os.ReadDir(dir); len(cached) != 0 {
		t.Errorf("a cancelled run cached pretrained weights: %v", cached)
	}
	for _, want := range []string{"resnet50          6000 |", "bert_tiny         4000 |"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Table 5 lacks row %q:\n%s", want, sb.String())
		}
	}
}

// TestAblationMomentumRunsThroughHarness checks every row of the momentum
// sweep is a harness session: each honours Config.Ctx, so under a
// cancelled context no row measures anything and all of them, the O-F row
// included, report no latency.
func TestAblationMomentumRunsThroughHarness(t *testing.T) {
	var sb strings.Builder
	if err := AblationMomentum(Config{Seed: 7, Out: &sb, CacheDir: t.TempDir(), Ctx: cancelled()}); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(sb.String()), "\n")[2:]
	if len(rows) != 4 {
		t.Fatalf("want 3 sweep rows and the O-F row, got:\n%s", sb.String())
	}
	for _, r := range rows {
		if !strings.HasSuffix(r, "+Inf") {
			t.Errorf("row %q measured under a cancelled context", r)
		}
	}
}
