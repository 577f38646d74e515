// Command pruner-tune runs end-to-end tuning sessions and prints each
// tuning curve and per-task result as JSON lines.
//
// Usage:
//
//	pruner-tune -net resnet50 -device a100 -method moa-pruner -trials 400
//	pruner-tune -net resnet50,vit,bert_tiny -trials 200   # tuned concurrently
//	pruner-tune -net resnet50 -log run1.jsonl             # persist records
//	pruner-tune -net resnet50 -resume run1.jsonl          # warm-start from them
//	pruner-tune -pretrain 300 -model-out pacm.gob         # save offline weights
//	pruner-tune -method moa-pruner -model-in pacm.gob     # reuse them
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"pruner"
	"pruner/internal/measure"
	"pruner/internal/parallel"
)

func main() {
	var (
		netName  = flag.String("net", "resnet50", "workload, or comma-separated workloads tuned concurrently (see -nets)")
		devName  = flag.String("device", "a100", "device: a100|titanv|orin|k80|t4")
		method   = flag.String("method", "pruner", "tuning method (pruner|moa-pruner|ansor|metaschedule|roller|...)")
		trials   = flag.Int("trials", 400, "measurement trials")
		seed     = flag.Int64("seed", 1, "random seed")
		maxTask  = flag.Int("max-tasks", 0, "tune only the top-N subgraphs (0 = all)")
		par      = flag.Int("parallelism", 0, "total workers, shared by every session of the run (0 = all CPUs, 1 = serial); results are seed-stable at any setting. -pretrain's dataset generation and fit run on all CPUs regardless")
		nets     = flag.Bool("nets", false, "list workloads")
		pre      = flag.Int("pretrain", 0, "pretrain PaCM on a K80 dataset with N schedules/task first (enables moa-pruner)")
		logPath  = flag.String("log", "", "append this run's measurement records to the file (JSON lines)")
		resume   = flag.String("resume", "", "warm-start from a record log written by -log; already-measured schedules are not re-measured")
		modelIn  = flag.String("model-in", "", "load pretrained cost-model weights from a file written by -model-out (skips -pretrain)")
		modelOut = flag.String("model-out", "", "save the -pretrain weights to the file for reuse by later runs, pruner-serve -model-in, or examples")
		depth    = flag.Int("pipeline-depth", 0, "measurement rounds in flight (0/1 = serial loop; higher overlaps measurement with search, deterministic per depth; ignored with -adapt-budget)")
		adapt    = flag.Bool("adapt-budget", false, "calibration-driven budget control: shrink the verify batch, widen the LSE draft set and deepen the pipeline as the cost model proves calibrated (deterministic; see DESIGN.md §8)")
		fleet    = flag.String("measurers", "", "comma-separated pruner-measure worker base URLs; batches are measured by the fleet instead of in-process (bitwise-identical results)")
		traceOut = flag.String("trace-out", "", "write the session's pipeline spans (plan/measure/commit, cost-model fit/predict) to the file as JSON; also enables wall-clock stage metrics internally")
	)
	flag.Parse()

	if *nets {
		for _, n := range pruner.NetworkNames() {
			fmt.Println(n)
		}
		return
	}
	dev, err := pruner.DeviceByName(*devName)
	fatalIf(err)
	var names []string
	for _, name := range strings.Split(*netName, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		fatalIf(fmt.Errorf("-net needs at least one workload (see -nets)"))
	}
	networks := make([]*pruner.Network, len(names))
	for i, name := range names {
		networks[i], err = pruner.LoadNetwork(name)
		fatalIf(err)
	}

	// The flag is a total budget: one pool runs the per-network fan-out
	// and every session inside it, so workers a finished session frees
	// go to the ones still running.
	pool := pruner.NewPool(*par)
	cfg := pruner.Config{
		Method:        pruner.Method(*method),
		Trials:        *trials,
		Seed:          *seed,
		MaxTasks:      *maxTask,
		Pool:          pool,
		PipelineDepth: *depth,
		AdaptBudget:   *adapt,
	}
	// Tracing rides on an injected wall clock; the readings land only in
	// the span dump, so -trace-out changes nothing about the Result
	// (golden fingerprints are identical armed or not). Concurrent
	// sessions share the observer — spans carry task/round attrs.
	var ob *pruner.Observer
	if *traceOut != "" {
		ob = pruner.NewObserver(0)
		cfg.Obs = ob
	}
	if *fleet != "" {
		var urls []string
		for _, u := range strings.Split(*fleet, ",") {
			if u = strings.TrimSuffix(strings.TrimSpace(u), "/"); u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) == 0 {
			fatalIf(fmt.Errorf("-measurers needs at least one worker URL"))
		}
		cfg.Measurer = pruner.NewFleet(urls)
		if *depth == 0 {
			// A fleet's natural pipeline depth is its worker count: keep
			// every worker busy unless the user pinned a depth.
			cfg.PipelineDepth = len(urls)
		}
		fmt.Fprintf(os.Stderr, "measuring on a %d-worker fleet (pipeline depth %d)\n", len(urls), cfg.PipelineDepth)
	}
	switch {
	case *modelIn != "" && (*pre > 0 || *modelOut != ""):
		// Refuse to guess: loading a bundle and pretraining/saving one in
		// the same run would silently drop whichever the user meant.
		fatalIf(fmt.Errorf("-model-in conflicts with -pretrain/-model-out (load a bundle or produce one, not both)"))
	case *modelIn != "":
		// Saved weights replace -pretrain entirely: the expensive offline
		// phase runs once per fleet, not once per process.
		if pruner.PretrainedKind(cfg.Method) == "" {
			fatalIf(fmt.Errorf("-model-in is unused by method %q, which takes no pretrained weights", cfg.Method))
		}
		f, err := os.Open(*modelIn)
		fatalIf(err)
		pretrained, err := pruner.LoadModel(f)
		f.Close()
		fatalIf(err)
		cfg.Pretrained = pretrained
		fmt.Fprintf(os.Stderr, "loaded pretrained %s weights from %s\n", pretrained.Kind, *modelIn)
	case *pre > 0:
		fmt.Fprintln(os.Stderr, "pretraining PaCM on K80 dataset...")
		ds, err := pruner.GenerateDataset(context.Background(), pruner.K80, []string{"wide_resnet50", "vit", "gpt2"}, *pre, *seed)
		fatalIf(err)
		_, pretrained, err := pruner.PretrainModel("pacm", ds, 10, *seed)
		fatalIf(err)
		cfg.Pretrained = pretrained
		if *modelOut != "" {
			fatalIf(saveModel(*modelOut, pretrained))
			fmt.Fprintf(os.Stderr, "saved pretrained weights to %s\n", *modelOut)
		}
	case *modelOut != "":
		fatalIf(fmt.Errorf("-model-out needs -pretrain (nothing was trained to save)"))
	}

	// A resume log is read once; each session decodes it against its own
	// task set (records of other networks' tasks are skipped).
	var resumeData []byte
	if *resume != "" {
		resumeData, err = os.ReadFile(*resume)
		fatalIf(err)
	}

	// Independent networks tune concurrently; each session's output is
	// buffered and printed in input order so streams never interleave.
	type session struct {
		res         *pruner.Result
		err         error
		out, status bytes.Buffer
	}
	sessions := parallel.Map(pool, len(networks), func(i int) *session {
		s := &session{}
		cfg := cfg
		if resumeData != nil {
			warm, err := measure.ReadRecords(bytes.NewReader(resumeData),
				networks[i].Representative(cfg.MaxTasks))
			if err != nil {
				s.err = fmt.Errorf("resume %s: %w", *resume, err)
				return s
			}
			cfg.WarmStart = warm
		}
		s.res, s.err = pruner.Tune(dev, networks[i], cfg)
		if s.err != nil {
			return s
		}
		enc := json.NewEncoder(&s.out)
		for _, p := range s.res.Curve {
			line := map[string]any{
				"round": p.Round, "trials": p.Trials,
				"sim_seconds": p.SimSeconds, "workload_ms": p.WorkloadLat * 1e3,
			}
			if len(names) > 1 {
				line["net"] = names[i]
			}
			_ = enc.Encode(line)
		}
		prefix := ""
		if len(names) > 1 {
			prefix = names[i] + ": "
		}
		if s.res.Warm > 0 {
			fmt.Fprintf(&s.status, "%swarm-started from %d prior records\n", prefix, s.res.Warm)
		}
		fmt.Fprintf(&s.status, "%sfinal workload latency: %.4f ms\n", prefix, s.res.FinalLatency*1e3)
		fmt.Fprintf(&s.status, "%ssimulated compile time: %.1f min (exploration %.1f, training %.1f, measurement %.1f)\n",
			prefix, s.res.Clock.Total()/60, s.res.Clock.Exploration/60,
			s.res.Clock.Training/60, s.res.Clock.Measurement/60)
		return s
	})
	// A failed session must not discard the others' paid-for work: print
	// and log every session's committed rounds first, then exit non-zero.
	// A session the measurement backend stopped failed too, after
	// committing a prefix of its budget.
	failed := false
	for i, s := range sessions {
		if s.err != nil {
			fmt.Fprintln(os.Stderr, "pruner-tune:", s.err)
			failed = true
			continue
		}
		os.Stdout.Write(s.out.Bytes())
		os.Stderr.Write(s.status.Bytes())
		if err := s.res.MeasureErr; err != nil {
			fmt.Fprintf(os.Stderr, "pruner-tune: %s: measurement backend failed after %d measurements: %v\n",
				names[i], len(s.res.Records)-s.res.Warm, err)
			failed = true
		}
	}

	// Persist only the new measurements (the warm prefix already lives in
	// the log this run resumed from), in input order, append-only so runs
	// accumulate into one reusable history.
	if *logPath != "" {
		f, err := os.OpenFile(*logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		fatalIf(err)
		logged := 0
		for _, s := range sessions {
			if s.err != nil {
				continue
			}
			recs := s.res.Records[s.res.Warm:]
			fatalIf(measure.WriteRecords(f, recs))
			logged += len(recs)
		}
		fatalIf(f.Close())
		fmt.Fprintf(os.Stderr, "logged %d records to %s\n", logged, *logPath)
	}

	// Dump the span ring buffer after every session finished — failed
	// sessions included, since their spans are exactly what one wants to
	// look at.
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		fatalIf(err)
		fatalIf(pruner.WriteTrace(ob, f))
		fatalIf(f.Close())
		fmt.Fprintf(os.Stderr, "wrote pipeline trace to %s\n", *traceOut)
	}
	if failed {
		os.Exit(1)
	}
}

// saveModel writes the weight bundle to path.
func saveModel(path string, p *pruner.Pretrained) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pruner.SaveModel(f, p); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pruner-tune:", err)
		os.Exit(1)
	}
}
