// Command bench is the repo's perf ledger: four tuning workloads, each
// reporting end-to-end metrics (untraced) or per-layer metrics (traced),
// with the workloads' outputs checked by the same command. The metric
// and workload names, units, directions and regression bounds live in
// BENCHMARK.json at the module root — the single declaration this
// command emits against and -compare judges by. See README.md.
//
//	go run ./bench -workload online_pruner -seed 7 -seconds 20 -trace 0
//	go run ./bench -seed 7                      # all four workloads in turn
//	go run ./bench -ledger out.json -runs 3     # a full result set
//	go run ./bench -compare old.json new.json   # verdict table, exit 1 on worse
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: every workload in turn)")
	seed := fs.Int64("seed", 1, "workload seed: sessions use seed, seed+1, ...")
	seconds := fs.Float64("seconds", 0, "how long one run measures (default: BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans dumped to bench/out/")
	ledger := fs.String("ledger", "", "write a full result set (-runs untraced runs and one traced run per workload) to this file")
	runs := fs.Int("runs", 3, "untraced runs per workload in a -ledger set")
	commit := fs.String("commit", "unknown", "commit id recorded in the -ledger metadata")
	compare := fs.Bool("compare", false, "compare two ledger files: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two ledger files")
			return 2
		}
		return compareLedgers(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 {
		*seconds = spec.runSeconds
	}
	if *ledger != "" {
		if err := writeLedger(spec, *ledger, *seed, *seconds, *runs, *commit, stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	todo := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		todo = []workload{w}
	}
	code := 0
	for _, w := range todo {
		res, err := w.run(*seed, *seconds, *trace == 1, setupReps)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		for _, f := range res.failures {
			fmt.Fprintf(stderr, "bench: %s: FAILED %s\n", w.name, f)
		}
		line, err := res.emit(spec, *trace == 1, w.name, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintln(stdout, line)
		if !res.correct() {
			code = 1
		}
	}
	return code
}

// runResult is one run of one workload: operation counts, the check
// failures behind them and every metric computed, keyed by name.
type runResult struct {
	attempted int
	failed    int
	failures  []string
	metrics   map[string]float64
}

func (r *runResult) correct() bool { return r.failed == 0 && len(r.failures) == 0 }

// emit prints the metrics BENCHMARK.json declares for the mode, one per
// line with its unit, and returns the driver's result object. It refuses
// to report when the computed set and the declared set differ, so the
// declaration cannot drift from the code.
func (r *runResult) emit(spec *benchSpec, traced bool, name string, w io.Writer) (string, error) {
	declared := spec.endToEnd
	if traced {
		declared = spec.perLayer
	}
	if len(r.metrics) != len(declared) {
		var extra []string
		for metric := range r.metrics {
			if _, ok := findMetric(declared, metric); !ok {
				extra = append(extra, metric)
			}
		}
		sort.Strings(extra)
		return "", fmt.Errorf("computed %d metrics, BENCHMARK.json declares %d (undeclared: %v)", len(r.metrics), len(declared), extra)
	}
	out := map[string]any{}
	for _, m := range declared {
		v, ok := r.metrics[m.name]
		if !ok {
			return "", fmt.Errorf("metric %s is declared in BENCHMARK.json but was not computed", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is not finite (%v)", m.name, v)
		}
		fmt.Fprintf(w, "%-16s %-36s %14.6g %s\n", name, m.name, v, m.unit)
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	// Plain locals, not fields of r: pruner-vet's wireshape check locks
	// every named struct mentioned in an encoder argument into wire.lock.
	correct, attempted, failed := r.correct(), r.attempted, r.failed
	line, err := json.Marshal(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": out})
	return string(line), err
}
