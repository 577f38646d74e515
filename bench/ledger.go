package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// ledgerSeedStride keeps a set's runs on disjoint session seeds (a run
// uses seed, seed+1, ... for its sessions).
const ledgerSeedStride = 1000

// writeLedger measures one full result set — runs untraced runs of every
// workload on consecutive seeds, then one traced run each — and writes
// it with the metadata a later comparison needs to trust it.
func writeLedger(spec *benchSpec, path string, seed int64, seconds float64, runs int, commit string, log io.Writer) error {
	host, _ := os.Hostname()
	out := map[string]any{
		"meta": map[string]any{
			"commit": commit, "seed": seed, "seconds": seconds, "runs": runs,
			"machine": host, "os": runtime.GOOS, "arch": runtime.GOARCH, "cpus": runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
			"date": time.Now().UTC().Format(time.RFC3339),
		},
	}
	sets := map[string]any{}
	for _, w := range workloads {
		var untraced []any
		for i := 0; i < runs; i++ {
			s := seed + int64(i)*ledgerSeedStride
			fmt.Fprintf(log, "bench: %s run %d/%d (seed %d)\n", w.name, i+1, runs, s)
			res, err := w.run(s, seconds, false, setupReps)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			untraced = append(untraced, ledgerRun(res, s))
		}
		fmt.Fprintf(log, "bench: %s traced run (seed %d)\n", w.name, seed)
		res, err := w.run(seed, seconds, true, setupReps)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		sets[w.name] = map[string]any{"runs": untraced, "traced": ledgerRun(res, seed)}
	}
	out["workloads"] = sets
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func ledgerRun(r *runResult, seed int64) map[string]any {
	return map[string]any{
		"seed": seed, "correct": r.correct(), "attempted": r.attempted, "failed": r.failed,
		"failures": r.failures, "metrics": r.metrics,
	}
}

// ledgerValues reads one end-to-end metric's value in every untraced run
// of a workload from a decoded ledger.
func ledgerValues(ledger map[string]any, workload, metric string) []float64 {
	sets, _ := ledger["workloads"].(map[string]any)
	set, _ := sets[workload].(map[string]any)
	var out []float64
	for _, run := range list(set["runs"]) {
		metrics, _ := run["metrics"].(map[string]any)
		if v, ok := metrics[metric].(float64); ok {
			out = append(out, v)
		}
	}
	return out
}

// verdict judges one metric on one workload between two sets of runs by
// the rule BENCHMARK.json's bound stands for: worse when the new median
// is worse than the old by more than the bound; unresolved when either
// set's own quartile spread exceeds the bound, unless every new run
// reads on one side of every old run; better when the medians differ by
// more than the old set's spread; otherwise same.
func verdict(m metricDecl, old, cur []float64) (v string, oldMed, curMed float64) {
	oldMed, curMed = median(old), median(cur)
	if len(old) == 0 || len(cur) == 0 || oldMed == 0 {
		return "unresolved", oldMed, curMed
	}
	// gain > 0 is an improvement, as a share of the old median.
	gain := (oldMed - curMed) / oldMed
	lo, hi := quantile(old, 0), quantile(old, 1)
	allBetter, allWorse := quantile(cur, 1) < lo, quantile(cur, 0) > hi
	if m.better == "higher" {
		gain = -gain
		allBetter, allWorse = quantile(cur, 0) > hi, quantile(cur, 1) < lo
	}
	spread := func(xs []float64) float64 { return (quantile(xs, 0.75) - quantile(xs, 0.25)) / median(xs) }
	noisy := spread(old) > m.bound || spread(cur) > m.bound
	switch {
	case noisy && allBetter:
		return "better", oldMed, curMed
	case noisy && !allWorse:
		return "unresolved", oldMed, curMed
	case gain < -m.bound:
		return "worse", oldMed, curMed
	case gain > spread(old) && gain > 0:
		return "better", oldMed, curMed
	}
	return "same", oldMed, curMed
}

// compareLedgers prints, per workload and end-to-end metric, the old and
// new medians, their ratio (base: old) and the verdict. It exits 1 when
// any pairing is worse.
func compareLedgers(spec *benchSpec, oldPath, newPath string, stdout, stderr io.Writer) int {
	var ledgers [2]map[string]any
	for i, path := range []string{oldPath, newPath} {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &ledgers[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", path, err)
			return 2
		}
	}
	names := append([]string(nil), spec.workloads...)
	sort.Strings(names)
	code := 0
	fmt.Fprintf(stdout, "%-14s %-20s %14s %14s %10s  %s\n", "workload", "metric", "old", "new", "new/old", "verdict")
	for _, w := range names {
		for _, m := range spec.endToEnd {
			old, cur := ledgerValues(ledgers[0], w, m.name), ledgerValues(ledgers[1], w, m.name)
			v, oldMed, curMed := verdict(m, old, cur)
			fmt.Fprintf(stdout, "%-14s %-20s %14.6g %14.6g %10.4f  %s (%s is better, bound %.0f%%, n=%d/%d)\n",
				w, m.name, oldMed, curMed, ratio(curMed, oldMed), v, m.better, 100*m.bound, len(old), len(cur))
			if v == "worse" {
				code = 1
			}
		}
	}
	return code
}
