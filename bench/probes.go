package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"pruner"
	"pruner/internal/analyzer"
	"pruner/internal/costmodel"
	"pruner/internal/features"
	"pruner/internal/ir"
	"pruner/internal/measure"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
	"pruner/internal/search"
	"pruner/internal/simulator"
	"pruner/internal/store"
)

const (
	probeSchedules = 1600 // one LSE generation: the per-schedule probes' candidate set
	probeRows      = 704  // one verify set (|S_spec| + random + exploit drafts): the cost-model probes' input
	probeReps      = 5    // each probe reports the median of this many passes
)

// perItem runs pass probeReps times and returns its median duration per
// item in microseconds.
func perItem(items int, pass func()) float64 {
	var us []float64
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		pass()
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3/float64(items))
	}
	return median(us)
}

// layerProbes calls each layer's entry points directly on a seeded
// candidate set of one task, so a layer that the workload's spans only
// show in aggregate (lowering inside the draft stage, featurizing inside
// predict) has a number of its own. Fixed-size inputs make these
// comparable across commits whatever the search then does.
func layerProbes(dev *pruner.Device, task *ir.Task, seed int64, outDir string) (map[string]float64, error) {
	out := map[string]float64{}
	rng := rand.New(rand.NewSource(seed))
	gen := schedule.NewGenerator(task)
	gen.MaxThreads = dev.MaxThreads
	gen.MaxSharedWords = dev.SharedPerBlock
	pool := parallel.New(0)

	schs := make([]*schedule.Schedule, probeSchedules)
	out["schedule.gen_us"] = perItem(probeSchedules, func() {
		for i := range schs {
			schs[i] = gen.Random(rng)
		}
	})
	out["schedule.mutate_us"] = perItem(probeSchedules, func() {
		for _, s := range schs {
			gen.Mutate(rng, s)
		}
	})
	// Feature extractors cache on the lowered program, so every pass
	// lowers afresh and each extractor sees programs it has not touched.
	var lws []*schedule.Lowered
	lower := func() {
		lws = lws[:0]
		for _, s := range schs {
			lws = append(lws, schedule.Lower(task, s))
		}
	}
	out["schedule.lower_us"] = perItem(probeSchedules, lower)
	extract := func(f func(*schedule.Lowered) [][]float64) float64 {
		var us []float64
		for r := 0; r < probeReps; r++ {
			lower()
			t0 := time.Now()
			for _, lw := range lws {
				f(lw)
			}
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3/probeSchedules)
		}
		return median(us)
	}
	out["features.statement_us"] = extract(features.Statement)
	out["features.dataflow_us"] = extract(features.Dataflow)
	out["features.primitives_us"] = extract(features.Primitives)
	draft := analyzer.New(dev)
	out["analyzer.score_us"] = perItem(probeSchedules, func() {
		for _, lw := range lws {
			draft.Score(lw)
		}
	})
	sim := simulator.New(dev)
	out["simulator.latency_us"] = perItem(probeSchedules, func() {
		for _, lw := range lws {
			_, _ = sim.LatencyLowered(lw) // unbuildable candidates cost the same to reject
		}
	})

	// Cost models: inference alone, over programs already lowered and
	// featurized in a shared memo — the state a round's verify stage
	// finds after the draft stage.
	rows := schs[:probeRows]
	memo := schedule.NewMemo()
	predict := func(m costmodel.Model) (usPerRow, bytesPerRow float64) {
		m.(costmodel.PoolUser).SetPool(pool)
		m.(costmodel.MemoUser).SetMemo(memo)
		m.Predict(task, rows) // featurizes into the memo and sizes the inference arenas
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		usPerRow = perItem(probeRows, func() { m.Predict(task, rows) })
		runtime.ReadMemStats(&after)
		return usPerRow, float64(after.TotalAlloc-before.TotalAlloc) / (probeReps * probeRows)
	}
	out["costmodel.probe_pacm_us_per_row"], out["costmodel.probe_alloc_b_per_row"] = predict(costmodel.NewPaCM(seed))
	out["costmodel.probe_tensetmlp_us_per_row"], _ = predict(costmodel.NewTenSetMLP(seed))
	out["costmodel.probe_tlp_us_per_row"], _ = predict(costmodel.NewTLP(seed))

	// One full Latent Schedule Explorer pass (Algorithm 2), as a round's
	// draft stage runs it on a task with no history.
	var lse []float64
	for r := 0; r < probeReps; r++ {
		ctx := &search.Context{Task: task, Gen: gen, RNG: rng, Pool: pool, Draft: draft,
			MeasuredSet: map[string]bool{}, Memo: schedule.NewMemo()}
		t0 := time.Now()
		search.RunLSE(ctx, search.DefaultLSEParams())
		lse = append(lse, time.Since(t0).Seconds()*1e3)
	}
	out["search.lse_probe_ms"] = median(lse)

	const fanouts = 2000
	out["parallel.foreach_overhead_us"] = perItem(fanouts, func() {
		for i := 0; i < fanouts; i++ {
			pool.ForEach(pool.Workers(), func(int) {})
		}
	})

	// Record codec (the store's segment format and the fleet's wire
	// format) and the store built on it.
	recs := make([]costmodel.Record, len(schs))
	for i, s := range schs {
		lat, err := sim.Latency(task, s)
		if err != nil {
			lat = -1 // the codec's failed-build sentinel path
		}
		recs[i] = costmodel.Record{Task: task, Sched: s, Latency: lat}
	}
	var buf bytes.Buffer
	var codecErr error
	out["measure.codec_encode_us"] = perItem(len(recs), func() {
		buf.Reset()
		if err := measure.WriteRecords(&buf, recs); err != nil {
			codecErr = err
		}
	})
	out["store.bytes_per_rec"] = float64(buf.Len()) / float64(len(recs))
	out["measure.codec_decode_us"] = perItem(len(recs), func() {
		if _, err := measure.ReadRecords(bytes.NewReader(buf.Bytes()), []*ir.Task{task}); err != nil {
			codecErr = err
		}
	})
	if codecErr != nil {
		return nil, fmt.Errorf("codec probe: %w", codecErr)
	}
	if err := storeProbe(out, dev.Name, task, recs, outDir); err != nil {
		return nil, fmt.Errorf("store probe: %w", err)
	}

	// Fleet round trip over loopback with nothing injected: codec, HTTP
	// and the worker's own measurement of one batch.
	ws := httptest.NewServer(pruner.NewMeasureWorker(0).Handler())
	defer ws.Close()
	fleet := pruner.NewFleet([]string{ws.URL})
	req := measure.Request{Device: dev.Name, Task: task, Batch: schs[:sessionBatch]}
	var rtt []float64
	for i := 0; i < 4*probeReps; i++ {
		t0 := time.Now()
		if _, err := fleet.Measure(context.Background(), req); err != nil {
			return nil, fmt.Errorf("fleet probe: %w", err)
		}
		rtt = append(rtt, time.Since(t0).Seconds()*1e3)
	}
	out["measure.fleet_rtt_ms"] = median(rtt)
	return out, nil
}

// storeProbe appends the records one session-sized job at a time, reads
// them back the two ways a job does, and reopens the store from disk.
func storeProbe(out map[string]float64, device string, task *ir.Task, recs []costmodel.Record, outDir string) error {
	dir, err := os.MkdirTemp(outDir, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	const job = 100
	t0 := time.Now()
	for lo := 0; lo < len(recs); lo += job {
		if err := st.Append(device, recs[lo:min(lo+job, len(recs))]); err != nil {
			st.Close()
			return err
		}
	}
	out["store.append_us_per_rec"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(recs))
	tasks := []*ir.Task{task}
	var warm []float64
	for r := 0; r < probeReps; r++ {
		t0 = time.Now()
		got, err := st.WarmStart(device, tasks)
		if err != nil || len(got) != len(recs) {
			st.Close()
			return fmt.Errorf("warm start returned %d of %d records: %v", len(got), len(recs), err)
		}
		warm = append(warm, time.Since(t0).Seconds()*1e3)
	}
	out["store.warmstart_ms"] = median(warm)
	const lookups = 200
	out["store.covered_us"] = perItem(lookups, func() {
		for i := 0; i < lookups; i++ {
			st.Covered(device, tasks, len(recs))
		}
	})
	if err := st.Close(); err != nil {
		return err
	}
	var reopen []float64
	for r := 0; r < probeReps; r++ {
		t0 = time.Now()
		st, err = store.Open(dir, store.Options{})
		if err != nil {
			return err
		}
		reopen = append(reopen, time.Since(t0).Seconds()*1e3)
		covered := st.Covered(device, tasks, len(recs))
		if err := st.Close(); err != nil {
			return err
		}
		if !covered {
			return fmt.Errorf("reopened store no longer covers the appended records")
		}
	}
	out["store.open_ms"] = median(reopen)
	return nil
}
