package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"pruner/internal/obs"
)

// reduced shrinks a workload to a 20-trial operation with a token
// offline stage, so the whole harness runs in a test.
func reduced(w workload) workload {
	w.trials = warmupTrials
	if w.fleet {
		w.deepTrials, w.hits = warmupTrials+sessionBatch, 5
	}
	if w.pretrain != nil {
		p := *w.pretrain
		p.perTask, p.epochs = 5, 1
		w.pretrain = &p
	}
	return w
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesWorkloads pins BENCHMARK.json to the code: the same
// workloads in the same order, well-formed metric names, a setup_s
// metric, and bounds within the harness's limit.
func TestSpecMatchesWorkloads(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code runs %d", len(spec.workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.workloads[i] != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the code %q", i, spec.workloads[i], w.name)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDecl(nil), spec.endToEnd...), spec.perLayer...) {
		if !metricName.MatchString(m.name) || seen[m.name] {
			t.Errorf("metric name %q is malformed or declared twice", m.name)
		}
		seen[m.name] = true
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %s: better is %q", m.name, m.better)
		}
	}
	for _, m := range spec.endToEnd {
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
	if m, ok := findMetric(spec.endToEnd, "setup_s"); !ok || m.unit != "s" || m.better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better; got %+v", m)
	}
}

// TestEveryWorkloadEmitsTheDeclaredMetrics runs each workload at reduced
// scale, untraced and traced. emit refuses a run whose computed metrics
// are not exactly the declared set, and run refuses a traced run
// whose decorated session is not bitwise the undecorated one.
func TestEveryWorkloadEmitsTheDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sixteen tuning sessions")
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := reduced(w).run(3, 0, traced, 1)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.correct() || res.attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", w.name, traced, res.attempted, res.failed, res.failures)
			}
			var human bytes.Buffer
			line, err := res.emit(spec, traced, w.name, &human)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			var got map[string]any
			if err := json.Unmarshal([]byte(line), &got); err != nil {
				t.Fatalf("%s: result line is not JSON: %v", w.name, err)
			}
			if len(got) != 4 || got["correct"] != true {
				t.Errorf("%s traced=%v: result object %v", w.name, traced, got)
			}
			if !traced && res.metrics["setup_s"] <= 0 {
				t.Errorf("%s: setup_s = %v", w.name, res.metrics["setup_s"])
			}
			if traced && res.metrics["tuner.accounted_share"] < 0.9 {
				t.Errorf("%s: the layer times account for %.0f%% of an operation's wall-clock, want >= 90%%",
					w.name, 100*res.metrics["tuner.accounted_share"])
			}
		}
		root, _ := moduleRoot()
		if _, err := os.Stat(filepath.Join(root, "bench", "out", "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: the traced run left no span dump: %v", w.name, err)
		}
	}
}

// TestDecoratorsCountWhatTheEngineDid checks the decorators' exact
// counts against the session they wrapped.
func TestDecoratorsCountWhatTheEngineDid(t *testing.T) {
	if testing.Short() {
		t.Skip("runs tuning sessions")
	}
	w, _ := workloadByName("online_pruner")
	s, err := newSessionRunner(reduced(w))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := s.op(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	armed, err := s.op(5, newTracer(0))
	if err != nil {
		t.Fatal(err)
	}
	if plain.fingerprint != armed.fingerprint {
		t.Fatalf("traced fingerprint %s, untraced %s", armed.fingerprint, plain.fingerprint)
	}
	rounds := float64(warmupTrials / sessionBatch)
	for name, want := range map[string]float64{
		"measure.batches": rounds, "measure.schedules": warmupTrials, "costmodel.predict_calls": rounds, "search.batch_fill": 1,
	} {
		if got := armed.layer[name]; len(got) != 1 || got[0] != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	times := spanTimes(armed.spans)
	for _, span := range []string{"tuner.plan", "tuner.commit", "search.next_batch", "costmodel.predict", "costmodel.fit", "measure.batch"} {
		if times[span] <= 0 {
			t.Errorf("no time recorded under span %s", span)
		}
	}
	if times["search.next_batch"] > times["tuner.plan"] || times["costmodel.predict"] > times["search.next_batch"] {
		t.Errorf("spans do not nest: plan %v, next_batch %v, predict %v", times["tuner.plan"], times["search.next_batch"], times["costmodel.predict"])
	}
}

// TestMeasureWaitIsTheUncoveredPartOfMeasureSpans pins the interval
// arithmetic: two overlapping in-flight batches count their idle time
// once, and time under a plan or commit span is not waiting.
func TestMeasureWaitIsTheUncoveredPartOfMeasureSpans(t *testing.T) {
	sp := func(name string, start, end int64) obs.Span { return obs.Span{Name: name, Start: start, End: end} }
	got := spanTimes([]obs.Span{
		sp("tuner.plan", 0, 10e9),
		sp("tuner.measure", 10e9, 25e9), // round 0 in flight
		sp("tuner.plan", 10e9, 18e9),    // round 1 planned meanwhile
		sp("tuner.measure", 18e9, 30e9), // round 1 in flight; idle 18-25 shared with round 0
		sp("tuner.commit", 25e9, 27e9),
		sp("tuner.commit", 30e9, 31e9),
	})
	if got["tuner.measure"] != 27 {
		t.Errorf("tuner.measure = %v s, want the span sum 27", got["tuner.measure"])
	}
	// Idle: 18-25 (both batches out, nothing to plan) and 27-30.
	if got["tuner.measure_wait"] != 10 {
		t.Errorf("tuner.measure_wait = %v s, want 10", got["tuner.measure_wait"])
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDecl{name: "wall_s", better: "lower", bound: 0.10}
	higher := metricDecl{name: "trials_per_s", better: "higher", bound: 0.10}
	for _, tc := range []struct {
		name     string
		m        metricDecl
		old, cur []float64
		want     string
	}{
		{"within the bound", lower, []float64{10, 10.1, 9.9}, []float64{10.5, 10.4, 10.6}, "same"},
		{"slower by more than the bound", lower, []float64{10, 10.1, 9.9}, []float64{11.5, 11.4, 11.6}, "worse"},
		{"faster by more than the old spread", lower, []float64{10, 10.1, 9.9}, []float64{9, 9.1, 8.9}, "better"},
		{"throughput fell", higher, []float64{50, 51, 49}, []float64{40, 41, 39}, "worse"},
		{"throughput rose", higher, []float64{50, 51, 49}, []float64{60, 61, 59}, "better"},
		{"inputs noisier than the bound", lower, []float64{10, 14, 7}, []float64{10, 13, 8}, "unresolved"},
		{"noisy, yet every new run beats every old one", lower, []float64{10, 14, 7}, []float64{5, 6, 4}, "better"},
		{"a missing side", lower, []float64{10}, nil, "unresolved"},
	} {
		if got, _, _ := verdict(tc.m, tc.old, tc.cur); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareExitsNonZeroOnWorse(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, wall float64) string {
		runs := []any{}
		for _, jitter := range []float64{0.99, 1, 1.01} {
			metrics := map[string]any{}
			for _, m := range spec.endToEnd {
				metrics[m.name] = 10 * jitter
			}
			metrics["wall_s"] = wall * jitter
			runs = append(runs, map[string]any{"metrics": metrics})
		}
		sets := map[string]any{}
		for _, w := range spec.workloads {
			sets[w] = map[string]any{"runs": runs}
		}
		data, _ := json.Marshal(map[string]any{"workloads": sets})
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	wall, _ := findMetric(spec.endToEnd, "wall_s")
	base, slow := write("base.json", 10), write("slow.json", 10*(1+2*wall.bound))
	var out, errs bytes.Buffer
	if code := compareLedgers(spec, base, base, &out, &errs); code != 0 {
		t.Errorf("a ledger against itself exits %d:\n%s%s", code, out.String(), errs.String())
	}
	out.Reset()
	if code := compareLedgers(spec, base, slow, &out, &errs); code != 1 {
		t.Errorf("a wall_s slower by twice its bound exits %d, want 1:\n%s", code, out.String())
	}
	if worse := strings.Count(out.String(), " worse "); worse != len(spec.workloads) {
		t.Errorf("%d pairings judged worse, want wall_s on each of %d workloads:\n%s", worse, len(spec.workloads), out.String())
	}
}
