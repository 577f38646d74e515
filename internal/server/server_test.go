package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pruner"
	"pruner/internal/costmodel"
	"pruner/internal/nn"
	"pruner/internal/store"
	"pruner/internal/tuner"
)

// testServer builds a daemon over a fresh store with a small shared pool.
func testServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv, err := New(context.Background(), Config{
		Store:      st,
		Pool:       pruner.NewPool(2),
		Workers:    2,
		QueueDepth: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ts
}

func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) jobView {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST /v1/jobs: %d (%s)", resp.StatusCode, e["error"])
	}
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func getJob(t *testing.T, ts *httptest.Server, id string) jobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// drainSSE reads the job's event stream until a terminal event (or EOF)
// and returns every event seen.
func drainSSE(t *testing.T, ts *httptest.Server, id string) []Event {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}
	var events []Event
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
		events = append(events, ev)
		if terminal(JobState(ev.Type)) {
			break
		}
	}
	return events
}

var e2eSpec = JobSpec{
	Device:    "a100",
	Network:   "dcgan",
	Method:    "pruner",
	Trials:    20,
	BatchSize: 10,
	Seed:      5,
	MaxTasks:  2,
}

// TestServerEndToEnd is the two-request demo as a test: the first request
// tunes (SSE progress visible, records persisted), the second identical
// request is answered from the store with no new measurements and no
// search.
func TestServerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end tuning")
	}
	_, ts := testServer(t, t.TempDir())

	// Request 1: a fresh tune.
	v := postJob(t, ts, e2eSpec)
	if v.ID == "" || terminal(v.State) {
		t.Fatalf("first submission should queue, got %+v", v)
	}
	events := drainSSE(t, ts, v.ID)
	var rounds, started int
	last := Event{}
	for _, ev := range events {
		switch ev.Type {
		case "round":
			rounds++
		case "started":
			started++
			if ev.WarmRecords != 0 {
				t.Fatalf("fresh store warm-started %d records", ev.WarmRecords)
			}
		}
		last = ev
	}
	if started != 1 || rounds < 2 {
		t.Fatalf("SSE saw %d started / %d rounds, want 1 / >=2", started, rounds)
	}
	if last.Type != string(StateDone) || last.Source != "tuned" {
		t.Fatalf("terminal event %+v, want done/tuned", last)
	}
	if last.NewMeasurements != e2eSpec.Trials {
		t.Fatalf("first job measured %d, want %d", last.NewMeasurements, e2eSpec.Trials)
	}

	done := getJob(t, ts, v.ID)
	if done.State != StateDone || done.Result == nil {
		t.Fatalf("job after SSE: %+v", done)
	}
	if len(done.Result.Curve) != rounds {
		t.Fatalf("curve %d points, SSE saw %d rounds", len(done.Result.Curve), rounds)
	}
	if len(done.Result.Best) == 0 || done.Result.FinalWorkloadMS <= 0 {
		t.Fatalf("result missing bests or latency: %+v", done.Result)
	}

	// Request 2: identical spec — a cache hit served without tuning.
	v2 := postJob(t, ts, e2eSpec)
	if v2.State != StateDone {
		t.Fatalf("repeat request state %q, want immediate done", v2.State)
	}
	if v2.Result == nil || v2.Result.Source != "store" {
		t.Fatalf("repeat request result %+v, want source store", v2.Result)
	}
	if v2.Result.NewMeasurements != 0 || len(v2.Result.Curve) != 0 {
		t.Fatalf("cache hit took measurements: %+v", v2.Result)
	}
	if len(v2.Result.Best) != e2eSpec.MaxTasks {
		t.Fatalf("cache hit returned %d bests, want %d", len(v2.Result.Best), e2eSpec.MaxTasks)
	}
	// The cached answer must match what the tuning job reported.
	if v2.Result.FinalWorkloadMS > done.Result.FinalWorkloadMS*1.0001 {
		t.Fatalf("cached workload %.4f ms worse than tuned %.4f ms",
			v2.Result.FinalWorkloadMS, done.Result.FinalWorkloadMS)
	}
	// Its SSE stream is just the replay: queued then done.
	ev2 := drainSSE(t, ts, v2.ID)
	if len(ev2) != 2 || ev2[len(ev2)-1].Source != "store" {
		t.Fatalf("cache-hit SSE %+v", ev2)
	}

	// A deeper identical request must NOT be served from the shallow
	// cache: 20 stored records cannot answer a 21-trial budget, so the
	// daemon warm-starts a real search instead.
	deeper := e2eSpec
	deeper.Trials = e2eSpec.Trials + 1
	v3 := postJob(t, ts, deeper)
	if terminal(v3.State) {
		t.Fatalf("deeper request served from shallow cache: %+v", v3)
	}
	drainSSE(t, ts, v3.ID)
	if final := getJob(t, ts, v3.ID); final.Result.WarmRecords != e2eSpec.Trials {
		t.Fatalf("deeper request warm-started %d records, want %d",
			final.Result.WarmRecords, e2eSpec.Trials)
	}

	// /v1/best agrees.
	resp, err := http.Get(ts.URL + fmt.Sprintf("/v1/best?device=%s&network=%s&max_tasks=%d",
		e2eSpec.Device, e2eSpec.Network, e2eSpec.MaxTasks))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var best struct {
		Covered    bool       `json:"covered"`
		WorkloadMS float64    `json:"workload_ms"`
		Best       []BestView `json:"best"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&best); err != nil {
		t.Fatal(err)
	}
	if !best.Covered || len(best.Best) != e2eSpec.MaxTasks || best.WorkloadMS <= 0 {
		t.Fatalf("/v1/best: %+v", best)
	}

	// Healthz sees the store and both jobs.
	hresp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health struct {
		Status string         `json:"status"`
		Jobs   map[string]int `json:"jobs"`
		Store  store.Stats    `json:"store"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	// Jobs: tuned + cache hit + deeper re-tune. Records: the first job's
	// 20 plus the deeper job's 3 full rounds of 10.
	if health.Status != "ok" || health.Jobs[string(StateDone)] != 3 || health.Store.Records != 50 {
		t.Fatalf("healthz: %+v", health)
	}
}

// TestServerWarmStartAcrossJobs checks the partial-coverage path: a wider
// request over a partially-tuned network warm-starts from the store
// instead of hitting the cache or starting cold.
func TestServerWarmStartAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end tuning")
	}
	_, ts := testServer(t, t.TempDir())

	v := postJob(t, ts, e2eSpec)
	drainSSE(t, ts, v.ID)

	wider := e2eSpec
	wider.MaxTasks = 3 // one task beyond what the store covers
	v2 := postJob(t, ts, wider)
	if terminal(v2.State) {
		t.Fatalf("partially-covered request must tune, got %+v", v2)
	}
	events := drainSSE(t, ts, v2.ID)
	var warmed int
	for _, ev := range events {
		if ev.Type == "started" {
			warmed = ev.WarmRecords
		}
	}
	if warmed != e2eSpec.Trials {
		t.Fatalf("second job warm-started %d records, want %d", warmed, e2eSpec.Trials)
	}
	final := getJob(t, ts, v2.ID)
	if final.State != StateDone || final.Result.WarmRecords != e2eSpec.Trials {
		t.Fatalf("warm job result %+v", final.Result)
	}
	if final.Result.NewMeasurements != wider.Trials {
		t.Fatalf("warm job measured %d, want %d", final.Result.NewMeasurements, wider.Trials)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	_, ts := testServer(t, t.TempDir())
	for name, spec := range map[string]JobSpec{
		"unknown device":    {Device: "h100", Network: "dcgan"},
		"unknown network":   {Device: "a100", Network: "nope"},
		"pretrained method": {Device: "a100", Network: "dcgan", Method: "moa-pruner"},
		"unknown method":    {Device: "a100", Network: "dcgan", Method: "magic"},
		"excessive trials":  {Device: "a100", Network: "dcgan", Trials: 1 << 30},
		"negative batch":    {Device: "a100", Network: "dcgan", BatchSize: -5},
		"batch over trials": {Device: "a100", Network: "dcgan", Trials: 10, BatchSize: 500},
	} {
		body, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if resp, _ := http.Get(ts.URL + "/v1/jobs/j-999999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job: status %d, want 404", resp.StatusCode)
	}
}

// oversizedBody is a JSON object whose one string field carries it past
// maxBodyBytes.
func oversizedBody(field string) *bytes.Reader {
	return bytes.NewReader([]byte(`{"` + field + `":"` + strings.Repeat("x", maxBodyBytes) + `"}`))
}

// TestServerRejectsOversizedJob pins the bound on POST /v1/jobs bodies:
// one over maxBodyBytes answers 413 and admits no job.
func TestServerRejectsOversizedJob(t *testing.T) {
	_, ts := testServer(t, t.TempDir())
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", oversizedBody("device"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized job body: status %d, want 413", resp.StatusCode)
	}
	var list struct {
		Jobs []jobView `json:"jobs"`
	}
	getJSON(t, ts, "/v1/jobs", &list)
	if len(list.Jobs) != 0 {
		t.Fatalf("oversized body admitted jobs: %+v", list.Jobs)
	}
}

// TestServerCancelQueuedJob pins that DELETE works before a job ever
// starts: the cancellation is remembered and the worker discards the job
// at dequeue instead of tuning its full budget.
func TestServerCancelQueuedJob(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end tuning")
	}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv, err := New(context.Background(), Config{Store: st, Pool: pruner.NewPool(1), Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	long := e2eSpec
	long.Trials = 200
	v1 := postJob(t, ts, long) // occupies the single worker
	queued := e2eSpec
	queued.Seed = 99
	queued.Trials = 200
	v2 := postJob(t, ts, queued) // sits in the queue behind it

	for _, id := range []string{v2.ID, v1.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	events := drainSSE(t, ts, v2.ID)
	last := events[len(events)-1]
	if last.Type != string(StateCanceled) {
		t.Fatalf("queued job ended %q, want canceled", last.Type)
	}
	for _, ev := range events {
		if ev.Type == "round" || ev.Type == "started" {
			t.Fatalf("canceled queued job still ran: saw %q event", ev.Type)
		}
	}
}

// deleteJob sends DELETE /v1/jobs/{id} and requires 202.
func deleteJob(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE /v1/jobs/%s: status %d, want 202", id, resp.StatusCode)
	}
}

// TestServerCancelRunningJob pins DELETE on a job that is tuning: the
// session stops at a round boundary, the job ends canceled with its
// partial result, and exactly the measurements it reports are persisted.
func TestServerCancelRunningJob(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end tuning")
	}
	dir := t.TempDir()
	_, ts := testServer(t, dir)

	long := e2eSpec
	long.Trials = 1000 // ~100 rounds: far longer than the cancel takes
	v := postJob(t, ts, long)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last Event
	deleted := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		if last.Type == "round" && !deleted {
			deleteJob(t, ts, v.ID)
			deleted = true
		}
		if terminal(JobState(last.Type)) {
			break
		}
	}
	if !deleted {
		t.Fatal("job never published a round")
	}
	if last.Type != string(StateCanceled) {
		t.Fatalf("running job ended %q (%s), want canceled", last.Type, last.Error)
	}
	final := getJob(t, ts, v.ID)
	if final.State != StateCanceled || final.Result == nil || !final.Result.Interrupted {
		t.Fatalf("canceled running job should carry its partial result, got %q %+v", final.State, final.Result)
	}
	if final.Result.NewMeasurements >= long.Trials {
		t.Fatalf("canceled job measured its whole budget (%d)", final.Result.NewMeasurements)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Stats().Records != final.Result.NewMeasurements {
		t.Fatalf("store has %d records, job measured %d", st.Stats().Records, final.Result.NewMeasurements)
	}
}

// TestServerAdmission pins the admission edges on a one-worker,
// one-slot daemon: with a job running, a second queues and a third is
// rejected with 503 without consuming an ID or moving the jobs gauge;
// after Shutdown, a submission the store cannot answer is refused too.
func TestServerAdmission(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end tuning")
	}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv, err := New(context.Background(), Config{Store: st, Pool: pruner.NewPool(1), Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	post := func(spec JobSpec) *http.Response {
		body, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	long := e2eSpec
	long.Trials = 1000
	v1 := postJob(t, ts, long)
	deadline := time.Now().Add(60 * time.Second)
	for getJob(t, ts, v1.ID).State == StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(10 * time.Millisecond)
	}

	second := long
	second.Seed = 99
	v2 := postJob(t, ts, second)
	if v2.State != StateQueued {
		t.Fatalf("second job state %q, want queued", v2.State)
	}
	third := long
	third.Seed = 100
	if resp := post(third); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("third job on a full queue: status %d, want 503", resp.StatusCode)
	}

	var list struct {
		Jobs []jobView `json:"jobs"`
	}
	getJSON(t, ts, "/v1/jobs", &list)
	if len(list.Jobs) != 2 || list.Jobs[0].ID != v1.ID || list.Jobs[1].ID != v2.ID {
		t.Fatalf("job list after a rejection: %+v", list.Jobs)
	}
	queued := MetricJobs + `{state="queued"}`
	if ln := expositionLine(scrapeMetrics(t, ts.URL), queued); ln != queued+" 1" {
		t.Fatalf("%s after a rejection: %q, want 1", queued, ln)
	}

	// Free the queue: the queued job is discarded at dequeue, the running
	// one stops at its next round.
	deleteJob(t, ts, v2.ID)
	deleteJob(t, ts, v1.ID)
	if events := drainSSE(t, ts, v2.ID); events[len(events)-1].Type != string(StateCanceled) {
		t.Fatalf("queued job ended %q, want canceled", events[len(events)-1].Type)
	}
	v4 := postJob(t, ts, third)
	var n2, n4 int
	if _, err := fmt.Sscanf(v2.ID, "j-%d", &n2); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscanf(v4.ID, "j-%d", &n4); err != nil {
		t.Fatal(err)
	}
	if n4 != n2+1 {
		t.Fatalf("job after a rejection got %s, want the ID after %s", v4.ID, v2.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	uncovered := JobSpec{Device: "a100", Network: "resnet50", Trials: 20, MaxTasks: 1}
	if resp := post(uncovered); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission after shutdown: status %d, want 503", resp.StatusCode)
	}
}

// TestServerShutdownCancelsRunningJob pins graceful shutdown: a long job
// is interrupted at a round boundary, lands in a terminal state, and its
// partial measurements are persisted to the store.
func TestServerShutdownCancelsRunningJob(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end tuning")
	}
	dir := t.TempDir()
	srv, ts := testServer(t, dir)

	long := e2eSpec
	long.Trials = 1000 // ~100 rounds: far longer than the shutdown window
	v := postJob(t, ts, long)

	// Wait until it is actually running (first round published).
	deadline := time.Now().Add(60 * time.Second)
	for getJob(t, ts, v.ID).State == StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(10 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	final := getJob(t, ts, v.ID)
	if !terminal(final.State) {
		t.Fatalf("job state after shutdown: %q", final.State)
	}
	if final.State == StateCanceled {
		if final.Result == nil || !final.Result.Interrupted {
			t.Fatalf("canceled job should carry its partial result, got %+v", final.Result)
		}
		// Partial measurements must have been persisted.
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if st.Stats().Records != final.Result.NewMeasurements {
			t.Fatalf("store has %d records, job measured %d",
				st.Stats().Records, final.Result.NewMeasurements)
		}
	}
}

// TestPretrainedMethodGating pins the -model-in story: pretrained-weight
// methods are rejected up front without a loaded bundle, rejected on an
// architecture mismatch, and served end to end when the bundle matches.
func TestPretrainedMethodGating(t *testing.T) {
	// No bundle: moa-pruner must be rejected at submit time.
	_, ts := testServer(t, t.TempDir())
	body, _ := json.Marshal(JobSpec{Device: "t4", Network: "dcgan", Method: "moa-pruner", Trials: 20, MaxTasks: 1})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("moa-pruner without a bundle: status %d, want 400", resp.StatusCode)
	}
	// Methods that take no weights need no bundle: the method's definition
	// decides that, not a list kept by the server.
	for _, m := range []string{"metaschedule", "roller"} {
		v := postJob(t, ts, JobSpec{Device: "t4", Network: "dcgan", Method: m, Trials: 10, MaxTasks: 1})
		if events := drainSSE(t, ts, v.ID); events[len(events)-1].Type != string(StateDone) {
			t.Fatalf("%s job without a bundle ended %q", m, events[len(events)-1].Type)
		}
	}

	// A matching bundle makes the method servable.
	ds, err := pruner.GenerateDataset(context.Background(), pruner.T4, []string{"dcgan"}, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, pre, err := pruner.PretrainModel("pacm", ds, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv, err := New(context.Background(), Config{
		Store:      st,
		Pool:       pruner.NewPool(2),
		Workers:    1,
		QueueDepth: 4,
		Pretrained: pre,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv.Handler())
	t.Cleanup(ts2.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	// Mismatched architecture still rejects.
	body, _ = json.Marshal(JobSpec{Device: "t4", Network: "dcgan", Method: "tlp", Trials: 20, MaxTasks: 1})
	resp, err = http.Post(ts2.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("tlp against a pacm bundle: status %d, want 400", resp.StatusCode)
	}

	v := postJob(t, ts2, JobSpec{Device: "t4", Network: "dcgan", Method: "moa-pruner", Trials: 20, MaxTasks: 1, Seed: 5})
	events := drainSSE(t, ts2, v.ID)
	last := events[len(events)-1]
	if last.Type != string(StateDone) {
		t.Fatalf("moa-pruner job ended %q (%s)", last.Type, last.Error)
	}
	if got := getJob(t, ts2, v.ID); got.Result == nil || got.Result.Source != "tuned" {
		t.Fatalf("unexpected result: %+v", got.Result)
	}
}

// TestJobPanicFailsOnlyThatJob pins the daemon's panic contract: a job
// whose session panics — a MoA job against a bundle with one truncated
// parameter, which nn.CopyParams rejects by panicking — ends failed with
// the panic in its error and in the panics counter, and the next job on
// the same worker runs to completion.
func TestJobPanicFailsOnlyThatJob(t *testing.T) {
	weights := tuner.SnapshotParams(costmodel.NewPaCM(1))
	w := weights[0]
	short := nn.New(w.R-1, w.C)
	copy(short.Data, w.Data)
	weights[0] = short

	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv, err := New(context.Background(), Config{
		Store:      st,
		Pool:       pruner.NewPool(2),
		Workers:    1,
		QueueDepth: 4,
		Pretrained: &pruner.Pretrained{Kind: "pacm", Weights: weights},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	v := postJob(t, ts, JobSpec{Device: "t4", Network: "dcgan", Method: "moa-pruner", Trials: 20, MaxTasks: 1, Seed: 5})
	events := drainSSE(t, ts, v.ID)
	if last := events[len(events)-1]; last.Type != string(StateFailed) || !strings.Contains(last.Error, "CopyParams") {
		t.Fatalf("panicking job ended %q (%s), want failed with the panic", last.Type, last.Error)
	}
	if ln := expositionLine(scrapeMetrics(t, ts.URL), MetricJobPanics); !strings.HasSuffix(ln, " 1") {
		t.Fatalf("%s = %q, want 1", MetricJobPanics, ln)
	}

	v = postJob(t, ts, JobSpec{Device: "t4", Network: "dcgan", Trials: 20, MaxTasks: 1, Seed: 5})
	events = drainSSE(t, ts, v.ID)
	if last := events[len(events)-1]; last.Type != string(StateDone) {
		t.Fatalf("job after the panic ended %q (%s), want done", last.Type, last.Error)
	}
}
