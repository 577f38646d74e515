package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"pruner/internal/nn"
	"pruner/internal/obs"
)

// run is one run of the workload: set up setups times (setup_s is their median),
// run operations for the given seconds (and at least the workload's
// exact-session count), check every output, and reduce to the run's
// metrics — the end-to-end set untraced, the per-layer set traced.
//
// It is a method, not a function of a workload, for pruner-vet's sake:
// the wireshape check follows function parameters (not receivers) into
// JSON encoders, and would otherwise want the workload table's struct
// recorded in wire.lock because the span dump's file name derives from it.
func (w workload) run(seed int64, seconds float64, traced bool, setups int) (*runResult, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}

	// Every timed stretch sits between two calibrations; norm converts its
	// seconds to reference-machine seconds by their mean (calibrate.go).
	cal := calibrate()
	var cals []float64
	norm := func(seconds float64) float64 {
		prev := cal
		cal = calibrate()
		cals = append(cals, cal)
		return seconds * calibrationRefS / ((prev + cal) / 2)
	}

	var r runner
	var setupS []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if r, err = w.setup(outDir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, norm(time.Since(t0).Seconds()))
	}

	res := &runResult{metrics: map[string]float64{}}
	var plain, armed []*opResult // untraced operations; their traced twins
	var alloc uint64
	var before, after runtime.MemStats
	run := func(i int, tr *tracer) (*opResult, error) {
		runtime.ReadMemStats(&before)
		op, err := r.op(seed+int64(i), tr)
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed+int64(i), err)
		}
		if tr == nil {
			runtime.ReadMemStats(&after)
			alloc += after.TotalAlloc - before.TotalAlloc
			plain = append(plain, op)
		} else {
			armed = append(armed, op)
		}
		op.normWall = norm(op.wall)
		res.attempted += op.ops
		res.failed += op.failed
		for _, f := range op.failures {
			res.failures = append(res.failures, fmt.Sprintf("seed %d: %s", seed+int64(i), f))
		}
		return op, nil
	}

	exact := max(1, int(seconds*w.exactRate))
	kernels := nn.Counters()
	runtime.ReadMemStats(&before)
	gcCycles := before.NumGC
	start := time.Now()
	for i := 0; i < exact || time.Since(start).Seconds() < seconds; i++ {
		if !traced {
			if _, err := run(i, nil); err != nil {
				return nil, err
			}
			continue
		}
		// A traced run pairs every seed's untraced operation with its
		// traced twin, alternating which goes first, so the overhead it
		// reports compares like with like.
		order := []*tracer{nil, newTracer(i)}
		if i%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		a, err := run(i, order[0])
		if err != nil {
			return nil, err
		}
		b, err := run(i, order[1])
		if err != nil {
			return nil, err
		}
		if a.fingerprint != b.fingerprint {
			return nil, fmt.Errorf("seed %d: traced and untraced results differ (%s, %s): the decorators changed the session",
				seed+int64(i), a.fingerprint, b.fingerprint)
		}
	}

	var walls, sims []float64
	var wallSum float64
	trials := 0
	for i, op := range plain {
		walls = append(walls, op.normWall)
		wallSum += op.normWall
		trials += op.trials
		if i < exact {
			sims = append(sims, op.simTotal)
		}
	}
	m := res.metrics
	if !traced {
		m["setup_s"] = median(setupS)
		m["wall_s"] = median(walls)
		m["trials_per_s"] = float64(trials) / wallSum
		m["alloc_mb_per_trial"] = float64(alloc) / 1e6 / float64(trials)
		m["sim_compile_s"] = mean(sims)
		return res, nil
	}

	runtime.ReadMemStats(&after)
	kernelsAfter := nn.Counters()
	dev, task := r.subject()
	probes, err := layerProbes(dev, task, seed, outDir)
	if err != nil {
		return nil, err
	}
	for name, v := range probes {
		m[name] = v
	}

	// Everything below is a mean per traced operation, so the layer times
	// add up to, and are read against, one operation's wall-clock.
	n := float64(len(armed))
	var spans []obs.Span
	var armedWall, armedNorm float64
	var roundMS, firstRoundMS, inFlight, toWall, toSim, finals, halves []float64
	rounds, improved, reached := 0, 0, 0
	layer := map[string][]float64{}
	for _, op := range armed {
		spans = append(spans, op.spans...)
		armedWall += op.wall
		armedNorm += op.normWall
		finals = append(finals, op.finalMS)
		for _, job := range op.jobs {
			prev := 0.0
			for i, rd := range job {
				if i == 0 {
					firstRoundMS = append(firstRoundMS, rd.wall*1e3)
				}
				roundMS = append(roundMS, (rd.wall-prev)*1e3)
				prev = rd.wall
				inFlight = append(inFlight, float64(rd.inFlight))
				if rd.improved {
					improved++
				}
			}
			rounds += len(job)
		}
		first := op.jobs[0]
		tw, ts, ok := toTarget(first, w.targetMS)
		toWall, toSim = append(toWall, tw), append(toSim, ts)
		if ok {
			reached++
		}
		if len(first) > 0 && !math.IsInf(first[(len(first)-1)/2].latMS, 1) {
			halves = append(halves, first[(len(first)-1)/2].latMS)
		}
		for _, name := range sortedKeys(op.layer) {
			layer[name] = append(layer[name], op.layer[name]...)
		}
	}
	times := spanTimes(spans)
	per := func(span string) float64 { return times[span] / n }
	m["tuner.plan_s"] = per("tuner.plan")
	m["tuner.measure_s"] = per("tuner.measure")
	m["tuner.commit_s"] = per("tuner.commit")
	m["tuner.measure_wait_s"] = per("tuner.measure_wait")
	m["search.next_batch_s"] = per("search.next_batch")
	m["search.draft_self_s"] = per("tuner.plan") - per("costmodel.predict in tuner.plan")
	m["costmodel.predict_s"] = per("costmodel.predict")
	m["costmodel.fit_s"] = per("costmodel.fit")
	m["measure.batch_s"] = per("measure.batch")
	m["tuner.commit_self_s"] = per("tuner.commit") - per("costmodel.fit in tuner.commit")
	// One operation's wall-clock is its plan and commit spans, the time
	// blocked on measurement between them, any fit outside a commit (a
	// warm start's priming fit) and — on serve_fleet — the store-answered
	// requests, which never reach the engine; what is left is the
	// engine's (and the daemon's) own overhead.
	wall := armedWall / n
	accounted := per("tuner.plan") + per("tuner.commit") + per("tuner.measure_wait") +
		per("costmodel.fit") - per("costmodel.fit in tuner.commit") + mean(layer["server.store_hit_ms"])/1e3*float64(w.hits)
	m["tuner.engine_self_s"] = wall - accounted
	m["tuner.accounted_share"] = accounted / wall
	m["tuner.trace_overhead_share"] = armedNorm/wallSum - 1

	for _, name := range []string{
		"search.batch_fill", "search.valid_share",
		"costmodel.predict_calls", "costmodel.predict_rows", "costmodel.fit_calls", "costmodel.fit_sample_visits",
		"measure.batches", "measure.schedules", "measure.failed_batches", "measure.failover_share",
		// The daemon's layers: observed per cycle on serve_fleet, absent —
		// reported as 0 — on the in-process workloads, which do not run them.
		"server.start_ms", "server.submit_ms", "server.first_frame_ms", "server.first_round_ms",
		"server.sse_frames", "server.queue_wait_ms", "server.metrics_scrape_ms", "server.best_ms",
	} {
		m[name] = mean(layer[name])
	}
	m["server.store_hit_p50_ms"] = quantile(layer["server.store_hit_ms"], 0.5)
	m["server.store_hit_p95_ms"] = quantile(layer["server.store_hit_ms"], 0.95)
	m["costmodel.predict_us_per_row"] = ratio(per("costmodel.predict")*1e6, m["costmodel.predict_rows"])
	m["costmodel.fit_us_per_visit"] = ratio(per("costmodel.fit")*1e6, m["costmodel.fit_sample_visits"])
	// Set-up's own layers (0 where set-up has no offline stage).
	m["dataset.generate_s"], m["dataset.programs"], m["costmodel.pretrain_s"] = 0, 0, 0
	if s, ok := r.(*sessionRunner); ok && s.offline != nil {
		m["dataset.generate_s"], m["dataset.programs"], m["costmodel.pretrain_s"] = s.offline.generateS, s.offline.programs, s.offline.pretrainS
	}

	m["search.rounds"] = float64(rounds) / n
	m["tuner.round_ms_p50"] = quantile(roundMS, 0.5)
	m["tuner.round_ms_p80"] = quantile(roundMS, 0.8)
	m["tuner.first_round_ms"] = mean(firstRoundMS)
	m["tuner.in_flight_mean"] = mean(inFlight)
	m["tuner.improve_round_share"] = ratio(float64(improved), float64(rounds))
	m["tuner.final_latency_ms"] = geomean(finals)
	m["tuner.half_budget_latency_ms"] = median(halves)
	m["tuner.wall_to_target_s"] = mean(toWall)
	m["tuner.sim_to_target_s"] = mean(toSim)
	m["tuner.target_reached_share"] = float64(reached) / n

	ops := float64(len(plain) + len(armed))
	m["nn.gemm_calls"] = float64(kernelsAfter.GEMMCalls-kernels.GEMMCalls) / ops
	m["nn.gemm_rows"] = float64(kernelsAfter.GEMMRows-kernels.GEMMRows) / ops
	m["nn.attn_segments"] = float64(kernelsAfter.AttnSegments-kernels.AttnSegments) / ops
	m["proc.gc_cycles"] = float64(after.NumGC-gcCycles) / ops
	m["proc.gc_cpu_share"] = after.GCCPUFraction
	m["proc.peak_rss_mb"] = peakRSSMB()
	// The layer times above are as measured, not normalised: multiply by
	// calibrationRefS over this to compare them across runs.
	m["proc.calibration_ms"] = mean(cals) * 1e3

	if err := dumpTrace(filepath.Join(outDir, "trace-"+w.name+".json"), spans); err != nil {
		return nil, err
	}
	return res, nil
}

func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// peakRSSMB is the process's resident-set high-water mark (Linux; 0
// where /proc is absent).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1e3
		}
	}
	return 0
}

// dumpTrace writes the run's spans, kept in memory until now.
func dumpTrace(path string, spans []obs.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(map[string]any{"spans": spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
