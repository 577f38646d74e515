package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"pruner"
	"pruner/internal/costmodel"
	"pruner/internal/ir"
	"pruner/internal/obs"
	"pruner/internal/server"
	"pruner/internal/store"
)

// deviceDelay is the fixed time a fleet worker holds a batch before
// measuring it: the stand-in for on-device run time, which the
// simulator's ~0.15 ms per batch does not have. It is what makes the
// pipelined engine and the fleet do real work in this workload.
const deviceDelay = 80 * time.Millisecond

// fleetRunner runs serve_fleet: per cycle a fresh daemon over an empty
// store with two loopback measurement workers; one closed-loop client
// submits J1 (fresh, fleet-measured, followed over SSE), re-submits the
// same spec hits times (answered from the store), then J3 (the same
// spec at a deeper budget, warm-started from J1's records).
type fleetRunner struct {
	w      workload
	outDir string
	dev    *pruner.Device
	net    *pruner.Network
	tasks  []*ir.Task
	// simChecked records that one cycle of this run already compared J1
	// with the same spec tuned in-process (an extra session per check).
	simChecked bool
}

func newFleetRunner(w workload, outDir string) (*fleetRunner, error) {
	dev, err := pruner.DeviceByName(w.device)
	if err != nil {
		return nil, err
	}
	net, err := pruner.LoadNetwork(w.network)
	if err != nil {
		return nil, err
	}
	f := &fleetRunner{w: w, outDir: outDir, dev: dev, net: net, tasks: net.Representative(w.maxTasks)}
	// One reduced-scale cycle through every path the timed cycles take.
	warm := *f
	warm.w.trials, warm.w.deepTrials, warm.w.hits = warmupTrials, 2*warmupTrials, 10
	warm.simChecked = true
	if _, err := warm.op(0, nil); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *fleetRunner) subject() (*pruner.Device, *ir.Task) { return f.dev, f.tasks[0] }

// daemon is one in-process pruner-serve with its store and fleet.
type daemon struct {
	dir     string
	st      *store.Store
	srv     *server.Server
	ts      *httptest.Server
	workers []*httptest.Server
	client  *http.Client
}

func startDaemon(outDir string, ob *pruner.Observer) (*daemon, error) {
	dir, err := os.MkdirTemp(outDir, "serve-store-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, client: &http.Client{}}
	if d.st, err = store.Open(dir, store.Options{Metrics: ob.Reg()}); err != nil {
		return nil, err
	}
	d.srv, err = server.New(context.Background(), server.Config{
		Store: d.st, Pool: pruner.NewPool(0), Workers: 1, MaxTrials: 1 << 20, Obs: ob,
	})
	if err != nil {
		return nil, err
	}
	d.ts = httptest.NewServer(d.srv.Handler())
	for i := 0; i < fleetWorkers; i++ {
		inner := pruner.NewMeasureWorker(1).Handler()
		ws := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/measure" {
				inner.ServeHTTP(w, r)
				return
			}
			// The worker's side of a batch, the daemon's counterpart of
			// the in-process workloads' measure.batch decorator span.
			sp := ob.Trace().Start("measure.batch", obs.String("parent", "tuner.measure"))
			time.Sleep(deviceDelay)
			inner.ServeHTTP(w, r)
			sp.End()
		}))
		d.workers = append(d.workers, ws)
		body, _ := json.Marshal(map[string]string{"url": ws.URL})
		if _, err := d.do(http.MethodPost, "/v1/measurers", body, nil); err != nil {
			return nil, fmt.Errorf("registering worker: %w", err)
		}
	}
	return d, nil
}

// stop drains the daemon and closes the store, leaving its directory.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	d.ts.Close()
	for _, ws := range d.workers {
		ws.Close()
	}
	d.client.CloseIdleConnections()
	if cerr := d.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// do issues one request against the daemon and decodes a JSON reply
// into out (skipped when nil); any status outside 2xx is an error.
func (d *daemon) do(method, path string, body []byte, out *map[string]any) ([]byte, error) {
	req, err := http.NewRequest(method, d.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return nil, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return data, nil
}

// jobRun is one tuned job as the client saw it.
type jobRun struct {
	submitMS, firstFrameMS, firstRoundMS float64
	frames                               int
	rounds                               []roundSample
	result                               map[string]any // the terminal job view's "result"
}

// num reads a numeric field of a decoded JSON object (0 when absent).
func num(m map[string]any, key string) float64 {
	v, _ := m[key].(float64)
	return v
}

// runJob submits a spec and follows the job over SSE to its terminal
// event, on the calling goroutine: the closed loop's one client.
func (d *daemon) runJob(spec server.JobSpec) (*jobRun, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var view map[string]any
	if _, err := d.do(http.MethodPost, "/v1/jobs", body, &view); err != nil {
		return nil, err
	}
	run := &jobRun{submitMS: time.Since(start).Seconds() * 1e3}
	id := str(view["id"])
	resp, err := d.client.Get(d.ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	best := map[string]float64{}
	terminal := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() && terminal == "" {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev server.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return nil, fmt.Errorf("job %s: bad SSE frame %q: %w", id, data, err)
		}
		since := time.Since(start).Seconds()
		if run.frames++; run.frames == 1 {
			run.firstFrameMS = since * 1e3
		}
		switch server.JobState(ev.Type) {
		case server.StateDone, server.StateFailed, server.StateCanceled:
			terminal = ev.Type
			if ev.Error != "" {
				terminal += ": " + ev.Error
			}
		case server.StateQueued, server.StateRunning:
		}
		if ev.Type != "round" {
			continue
		}
		if len(run.rounds) == 0 {
			run.firstRoundMS = since * 1e3
		}
		lat := ev.WorkloadMS
		if lat < 0 {
			lat = math.Inf(1) // the API's "no valid measurement yet" sentinel
		}
		prev, seen := best[ev.Task]
		best[ev.Task] = ev.TaskBestMS
		run.rounds = append(run.rounds, roundSample{
			wall: since, sim: ev.SimSeconds, latMS: lat, inFlight: ev.InFlight,
			improved: ev.TaskBestMS >= 0 && (!seen || prev < 0 || ev.TaskBestMS < prev),
		})
	}
	if terminal != string(server.StateDone) {
		return nil, fmt.Errorf("job %s ended %q (stream error: %v)", id, terminal, sc.Err())
	}
	if _, err := d.do(http.MethodGet, "/v1/jobs/"+id, nil, &view); err != nil {
		return nil, err
	}
	run.result, _ = view["result"].(map[string]any)
	if run.result == nil {
		return nil, fmt.Errorf("job %s is done without a result", id)
	}
	return run, nil
}

func (f *fleetRunner) op(seed int64, tr *tracer) (*opResult, error) {
	out := &opResult{}
	observe := out.observe
	// checked runs the checks of one operation (a job, a store hit, the
	// scrape, the reopen) and counts it failed if any of them did.
	checked := func(checks func()) {
		n := len(out.failures)
		checks()
		if len(out.failures) > n {
			out.failed++
		}
	}
	// The daemon is armed exactly as pruner-serve arms it, traced run or
	// not; a traced cycle only supplies the Observer so it can keep the
	// spans. Every daemon needs one of its own: the registry's
	// func-backed gauges bind to the server that first registered them.
	ob := pruner.NewObserver(traceCap)
	if tr != nil {
		ob = tr.ob
	}
	t0 := time.Now()
	d, err := startDaemon(f.outDir, ob)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop() // an error is already on its way out
		}
		os.RemoveAll(d.dir)
	}()
	observe("server.start_ms", time.Since(t0).Seconds()*1e3)

	spec := server.JobSpec{
		Device: f.w.device, Network: f.w.network, Method: string(f.w.method),
		Trials: f.w.trials, Seed: seed, MaxTasks: f.w.maxTasks,
		Measurer: "fleet", PipelineDepth: f.w.depth,
	}
	deep := spec
	deep.Trials = f.w.deepTrials
	hitBody, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}

	// ---- timed: the closed loop ----
	start := time.Now()
	j1, err := d.runJob(spec)
	if err != nil {
		return nil, err
	}
	j1Final := num(j1.result, "final_workload_ms")
	for i := 0; i < f.w.hits; i++ {
		var view map[string]any
		h0 := time.Now()
		_, err := d.do(http.MethodPost, "/v1/jobs", hitBody, &view)
		observe("server.store_hit_ms", time.Since(h0).Seconds()*1e3)
		res, _ := view["result"].(map[string]any)
		checked(func() {
			switch {
			case err != nil:
				out.fail("store hit %d: %v", i, err)
			case str(view["state"]) != string(server.StateDone) || str(res["source"]) != "store" || num(res, "new_measurements") != 0:
				out.fail("store hit %d was not answered from the store: state %v, result %v", i, view["state"], res)
			case math.Abs(num(res, "final_workload_ms")-j1Final) > 1e-9*j1Final:
				out.fail("store hit %d returned %.9g ms, J1 tuned to %.9g ms", i, num(res, "final_workload_ms"), j1Final)
			}
		})
	}
	j3, err := d.runJob(deep)
	if err != nil {
		return nil, err
	}
	out.wall = time.Since(start).Seconds()
	// ---- untimed: checks and layer observations ----

	out.ops = 2 + f.w.hits + 2
	out.jobs = [][]roundSample{j1.rounds, j3.rounds}
	out.trials = int(num(j1.result, "new_measurements") + num(j3.result, "new_measurements"))
	out.simTotal = num(j1.result, "sim_compile_seconds") + num(j3.result, "sim_compile_seconds")
	out.finalMS = num(j3.result, "final_workload_ms")
	h := fnv.New64a()
	for _, j := range []*jobRun{j1, j3} {
		result := j.result
		canon, err := json.Marshal(result) // map keys marshal sorted
		if err != nil {
			return nil, err
		}
		h.Write(canon)
		observe("server.submit_ms", j.submitMS)
		observe("server.first_frame_ms", j.firstFrameMS)
		observe("server.first_round_ms", j.firstRoundMS)
		observe("server.sse_frames", float64(j.frames))
	}
	out.fingerprint = fmt.Sprintf("%016x", h.Sum64())

	checked(func() {
		if got, want := int(num(j1.result, "new_measurements")), f.w.trials; got < want || str(j1.result["measurer"]) != "fleet" {
			out.fail("J1 committed %d of %d trials on measurer %q", got, want, str(j1.result["measurer"]))
		}
		if !f.simChecked {
			f.simChecked = true
			f.checkAgainstSimulator(out, spec, j1.result)
		}
	})
	checked(func() {
		if got, want := int(num(j3.result, "new_measurements")), f.w.deepTrials; got < want || int(num(j3.result, "warm_records")) != f.w.trials {
			out.fail("J3 committed %d of %d trials from %v warm records (J1 stored %d)", got, want, j3.result["warm_records"], f.w.trials)
		}
		if out.finalMS > j1Final {
			out.fail("J3 (warm-started, %.9g ms) ended worse than J1 (%.9g ms)", out.finalMS, j1Final)
		}
	})

	t0 = time.Now()
	scrape, err := d.do(http.MethodGet, "/metrics", nil, nil)
	observe("server.metrics_scrape_ms", time.Since(t0).Seconds()*1e3)
	checked(func() {
		if err != nil {
			out.fail("/metrics: %v", err)
		} else if err := obs.ValidateText(bytes.NewReader(scrape)); err != nil {
			out.fail("/metrics is not valid exposition text: %v", err)
		}
	})
	// What the decorators count on the in-process workloads, read back
	// from the registry the daemon's sessions report into (fit sample
	// visits are not exported, so they stay unobserved here).
	observe("server.queue_wait_ms", 1e3*ratio(promSum(scrape, server.MetricQueueWaitSeconds+"_sum"), promSum(scrape, server.MetricQueueWaitSeconds+"_count")))
	observe("costmodel.predict_calls", promSum(scrape, costmodel.MetricPredictSeconds+"_count"))
	observe("costmodel.predict_rows", promSum(scrape, costmodel.MetricPredictCandidates))
	observe("costmodel.fit_calls", promSum(scrape, costmodel.MetricFitSeconds+"_count"))
	t0 = time.Now()
	q := url.Values{"device": {spec.Device}, "network": {spec.Network}, "max_tasks": {strconv.Itoa(spec.MaxTasks)}}
	if _, err := d.do(http.MethodGet, "/v1/best?"+q.Encode(), nil, nil); err != nil {
		return nil, err
	}
	observe("server.best_ms", time.Since(t0).Seconds()*1e3)
	var listing map[string]any
	if _, err := d.do(http.MethodGet, "/v1/measurers", nil, &listing); err != nil {
		return nil, err
	}
	var batches, schedules, failures float64
	for _, m := range list(listing["measurers"]) {
		batches += num(m, "batches")
		schedules += num(m, "schedules")
		failures += num(m, "failures")
	}
	observe("measure.batches", batches)
	observe("measure.schedules", schedules)
	observe("measure.failed_batches", failures)
	observe("measure.failover_share", ratio(failures, batches+failures))

	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}
	if tr != nil {
		out.spans = tr.spans()
	}
	// The records must outlive the daemon: reopen from disk and ask the
	// cache-hit question again.
	checked(func() {
		st, err := store.Open(d.dir, store.Options{})
		if err != nil {
			out.fail("reopening the store: %v", err)
			return
		}
		if !st.Covered(spec.Device, f.tasks, f.w.deepTrials) {
			out.fail("the reopened store no longer covers the %d-trial spec", f.w.deepTrials)
		}
		recs, err := st.WarmStart(spec.Device, f.tasks)
		if err != nil || len(recs) != out.trials {
			out.fail("the reopened store holds %d records, the jobs committed %d (%v)", len(recs), out.trials, err)
		}
		valid := 0
		for _, r := range recs {
			if !math.IsInf(r.Latency, 1) {
				valid++
			}
		}
		observe("search.valid_share", ratio(float64(valid), float64(len(recs))))
		if err := st.Close(); err != nil {
			out.fail("closing the reopened store: %v", err)
		}
	})
	return out, nil
}

// checkAgainstSimulator tunes J1's spec in process on the simulator and
// requires the fleet-measured job to have produced the same curve.
func (f *fleetRunner) checkAgainstSimulator(out *opResult, spec server.JobSpec, j1 map[string]any) {
	res, err := pruner.Tune(f.dev, f.net, pruner.Config{
		Method: f.w.method, Trials: spec.Trials, Seed: spec.Seed, MaxTasks: spec.MaxTasks, PipelineDepth: spec.PipelineDepth,
	})
	if err != nil {
		out.fail("in-process reference session: %v", err)
		return
	}
	curve := list(j1["curve"])
	if len(curve) != len(res.Curve) || num(j1, "final_workload_ms") != res.FinalLatency*1e3 {
		out.fail("fleet-measured J1 (%d rounds, %.9g ms) differs from the in-process session (%d rounds, %.9g ms)",
			len(curve), num(j1, "final_workload_ms"), len(res.Curve), res.FinalLatency*1e3)
		return
	}
	for i, p := range res.Curve {
		if num(curve[i], "sim_seconds") != p.SimSeconds {
			out.fail("fleet-measured J1 diverges from the in-process session at round %d", i)
			return
		}
	}
}

// promSum totals the samples of one name in exposition text, across
// label sets (0 when absent).
func promSum(text []byte, name string) float64 {
	var sum float64
	for _, line := range strings.Split(string(text), "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		v, _ := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64)
		sum += v
	}
	return sum
}
