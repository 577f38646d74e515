package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pruner"
	"pruner/internal/costmodel"
	"pruner/internal/obs"
	"pruner/internal/schedule"
	"pruner/internal/store"
)

// scrapeMetrics GETs /metrics from base, failing on a bad status, a wrong
// content type, an empty body, or output the strict stdlib parser rejects.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("GET /metrics content-type %q, want the 0.0.4 text exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(bytes.TrimSpace(body)) == 0 {
		t.Fatalf("GET /metrics from %s: empty exposition", base)
	}
	if err := obs.ValidateText(bytes.NewReader(body)); err != nil {
		t.Fatalf("GET /metrics from %s: malformed exposition: %v\n%s", base, err, body)
	}
	return string(body)
}

// TestMetricsEndpointScrape runs one job to completion and then checks the
// whole observability surface in one place: /metrics parses and carries
// every layer's families, /v1/trace dumps the job's pipeline spans, and
// /v1/healthz reports the very numbers the registry holds (healthz is a
// registry read, so the two can never disagree).
func TestMetricsEndpointScrape(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end tuning")
	}
	srv, ts := testServer(t, t.TempDir())
	v := postJob(t, ts, e2eSpec)
	events := drainSSE(t, ts, v.ID)
	if last := events[len(events)-1]; last.Type != string(StateDone) {
		t.Fatalf("job ended %q (%s)", last.Type, last.Error)
	}

	text := scrapeMetrics(t, ts.URL)
	for _, family := range []string{
		MetricQueueDepth,               // server: queue occupancy gauge
		MetricQueueWaitSeconds,         // server: queue wait histogram
		MetricJobs,                     // server: per-state job gauge
		MetricRoundSeconds,             // server: per-round wall latency
		MetricMeasurersRegistered,      // server: fleet registry size
		MetricMemoParkedBytes,          // schedule: parked memo storage
		MetricScratchParkedBytes,       // costmodel: parked arena storage
		store.MetricRecords,            // store: live occupancy
		store.MetricAppends,            // store: append counter moved by the job
		"pruner_tuner_stage_seconds",   // engine: per-stage latency (plan|measure|commit)
		"pruner_tuner_rounds_total",    // engine: committed rounds
		"pruner_costmodel_fit_seconds", // cost model: online training latency
		"pruner_nn_gemm_calls_total",   // nn engine: kernel counters
	} {
		if !strings.Contains(text, family) {
			t.Errorf("scrape missing family %s", family)
		}
	}

	// Healthz agrees with the registry it reads from.
	var health struct {
		Jobs  map[string]int `json:"jobs"`
		Store store.Stats    `json:"store"`
	}
	getJSON(t, ts, "/v1/healthz", &health)
	if health.Jobs[string(StateDone)] != 1 {
		t.Fatalf("healthz jobs: %+v, want one done", health.Jobs)
	}
	if got, ok := srv.cfg.Obs.Reg().Value(MetricJobs, string(StateDone)); !ok || int(got) != health.Jobs[string(StateDone)] {
		t.Fatalf("healthz done=%d but registry %s{state=done}=%v (ok=%v)",
			health.Jobs[string(StateDone)], MetricJobs, got, ok)
	}
	if health.Store.Records == 0 {
		t.Fatal("healthz store.records is 0 after a tuned job persisted measurements")
	}
	if got := srv.cfg.Obs.Reg(); func() float64 { v, _ := got.Value(store.MetricRecords); return v }() != float64(health.Store.Records) {
		t.Fatalf("healthz store.records diverges from the registry gauge")
	}

	// The job's memos and arenas are parked once it is done, and each
	// gauge samples its free list itself.
	parked, ok := srv.cfg.Obs.Reg().Value(MetricMemoParkedBytes)
	if want := float64(schedule.ParkedBytes()); !ok || parked <= 0 || parked != want {
		t.Fatalf("%s = %v (ok=%v) after a job, want positive and schedule.ParkedBytes() = %v", MetricMemoParkedBytes, parked, ok, want)
	}
	scratch, ok := srv.cfg.Obs.Reg().Value(MetricScratchParkedBytes)
	if want := float64(costmodel.ParkedScratchBytes()); !ok || scratch <= 0 || scratch != want {
		t.Fatalf("%s = %v (ok=%v) after a job, want positive and costmodel.ParkedScratchBytes() = %v", MetricScratchParkedBytes, scratch, ok, want)
	}

	// The span ring buffer saw the job's pipeline stages.
	resp, err := http.Get(ts.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("GET /v1/trace content-type %q", ct)
	}
	var dump struct {
		Total    uint64 `json:"total_spans"`
		Retained int    `json:"retained_spans"`
		Spans    []struct {
			Name  string `json:"name"`
			Start int64  `json:"start_unix_nano"`
			End   int64  `json:"end_unix_nano"`
		} `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if dump.Total == 0 || dump.Retained == 0 {
		t.Fatalf("trace dump empty after a tuned job: %+v", dump)
	}
	stages := map[string]bool{}
	for _, sp := range dump.Spans {
		stages[sp.Name] = true
		if sp.End < sp.Start {
			t.Fatalf("span %s ends before it starts (%d < %d)", sp.Name, sp.End, sp.Start)
		}
	}
	for _, want := range []string{"tuner.plan", "tuner.measure", "tuner.commit", "costmodel.fit"} {
		if !stages[want] {
			t.Errorf("trace dump missing stage %s (saw %v)", want, stages)
		}
	}
}

// TestMetricsFleetScrapeMidSession is the observability half of the fleet
// e2e: with a loopback pruner-measure worker serving its own /metrics, a
// fleet job is scraped MID-session — daemon and worker both — so the test
// catches families that only exist after-the-fact or expositions that are
// only well-formed at rest.
func TestMetricsFleetScrapeMidSession(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end tuning")
	}
	_, ts := testServer(t, t.TempDir())

	// The worker carries its own wall-clock observer, exactly as
	// cmd/pruner-measure arms it.
	wob := pruner.NewObserver(0)
	ws := httptest.NewServer(pruner.NewObservedMeasureWorker(2, wob).Handler())
	t.Cleanup(ws.Close)
	registerWorker(t, ts, ws.URL, http.StatusOK)

	spec := e2eSpec
	spec.Fresh = true
	spec.Measurer = "fleet"
	spec.PipelineDepth = 2
	spec.Trials = 60 // several rounds, so the scrape lands inside the session
	v := postJob(t, ts, spec)

	// Read the SSE stream incrementally; after the first committed round,
	// scrape both endpoints while the job is still running.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var scraped bool
	var last Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		last = ev
		if ev.RoundMillis < 0 {
			t.Fatalf("negative RoundMillis on %+v", ev)
		}
		if ev.Type == "round" && !scraped {
			scraped = true

			serverText := scrapeMetrics(t, ts.URL)
			if !strings.Contains(serverText, pruner.MetricFleetBatches) {
				t.Errorf("mid-session daemon scrape missing %s", pruner.MetricFleetBatches)
			}
			if !strings.Contains(serverText, MetricSSEStreams) {
				t.Errorf("mid-session daemon scrape missing %s", MetricSSEStreams)
			}
			// The frames this loop is reading were counted as they were
			// written (the open-streams gauge itself can already be back to
			// 0 here: a fast job's handler exits the moment the job is done,
			// while its frames are still buffered toward this scanner).
			if ln := expositionLine(serverText, MetricSSEEvents); ln == "" || strings.HasSuffix(ln, " 0") {
				t.Errorf("mid-session %s = %q, want >= 1 written frame", MetricSSEEvents, ln)
			}

			workerText := scrapeMetrics(t, ws.URL)
			for _, family := range []string{"pruner_worker_batches_total", "pruner_worker_schedules_total"} {
				if !strings.Contains(workerText, family) {
					t.Errorf("mid-session worker scrape missing %s", family)
				}
			}
		}
		if terminal(JobState(ev.Type)) {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !scraped {
		t.Fatal("SSE stream ended without a round event; nothing was scraped mid-session")
	}
	if last.Type != string(StateDone) {
		t.Fatalf("fleet job ended %q (%s)", last.Type, last.Error)
	}

	// The worker's own registry moved: its batches flowed through its
	// observer, not just the daemon's fleet-side counters.
	if got, ok := wob.Reg().Value("pruner_worker_batches_total"); !ok || got == 0 {
		t.Fatalf("worker-side batch counter never moved (got %v, ok=%v)", got, ok)
	}
}

// expositionLine returns the first sample line of the named family (no
// # prefix), "" when absent.
func expositionLine(text, name string) string {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name) {
			return line
		}
	}
	return ""
}
