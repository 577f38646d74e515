// Command pruner-bench reproduces the paper's tables and figures.
//
// Usage:
//
//	pruner-bench -exp table1            # one experiment, scaled
//	pruner-bench -exp fig6 -full        # paper-scale parameters
//	pruner-bench -all                   # the whole evaluation section
//	pruner-bench -all -jobs 4           # four experiments at a time
//	pruner-bench -list                  # available experiment IDs
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"time"

	"pruner/internal/experiments"
	"pruner/internal/parallel"
)

func main() {
	var (
		exp   = flag.String("exp", "", "experiment id (see -list)")
		all   = flag.Bool("all", false, "run every experiment")
		full  = flag.Bool("full", false, "paper-scale parameters (slow)")
		list  = flag.Bool("list", false, "list experiment ids")
		seed  = flag.Int64("seed", 42, "base random seed")
		cache = flag.String("cache", ".cache", "pretrained-weights cache dir")
		par   = flag.Int("parallelism", 0, "workers per experiment (0 = all CPUs, 1 = serial); rows are seed-stable at any setting")
		jobs  = flag.Int("jobs", 1, "experiments run concurrently with -all (output stays in evaluation order)")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All {
			fmt.Println(e.ID)
		}
		return
	}

	run := func(id string, cfg experiments.Config) error {
		r, ok := experiments.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", id)
			os.Exit(2)
		}
		start := time.Now()
		if err := r(cfg); err != nil {
			return fmt.Errorf("experiment %s failed: %w", id, err)
		}
		fmt.Fprintf(cfg.Out, "[%s done in %s]\n\n", id, time.Since(start).Round(time.Second))
		return nil
	}

	switch {
	case *all:
		// Fan experiments out -jobs at a time; each writes to its own
		// buffer, printed in evaluation order once all are done racing.
		// -parallelism is a total budget, split across concurrent jobs.
		perJob := parallel.New(*par).Workers() / max(1, *jobs)
		if perJob < 1 {
			perJob = 1
		}
		all := experiments.All
		bufs := make([]bytes.Buffer, len(all))
		errs := parallel.Map(parallel.New(*jobs), len(all), func(i int) error {
			cfg := experiments.Config{
				Full: *full, Seed: *seed, Out: &bufs[i],
				CacheDir: *cache, Parallelism: perJob,
			}
			return run(all[i].ID, cfg)
		})
		failed := false
		for i := range all {
			os.Stdout.Write(bufs[i].Bytes())
			if errs[i] != nil {
				failed = true
				fmt.Fprintln(os.Stderr, errs[i])
			}
		}
		if failed {
			os.Exit(1)
		}
	case *exp != "":
		cfg := experiments.Config{
			Full: *full, Seed: *seed, Out: os.Stdout,
			CacheDir: *cache, Parallelism: *par,
		}
		if err := run(*exp, cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}
