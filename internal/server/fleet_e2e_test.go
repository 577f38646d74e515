package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"pruner"
)

// startWorker runs an in-process measurement worker (the loopback
// equivalent of cmd/pruner-measure) and registers it with the daemon.
func startWorker(t *testing.T, ts *httptest.Server) *httptest.Server {
	t.Helper()
	ws := httptest.NewServer(pruner.NewMeasureWorker(2).Handler())
	t.Cleanup(ws.Close)
	registerWorker(t, ts, ws.URL, http.StatusOK)
	return ws
}

func registerWorker(t *testing.T, ts *httptest.Server, url string, wantStatus int) {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"url": url})
	resp, err := http.Post(ts.URL+"/v1/measurers", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("registering %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
}

// TestFleetEndToEnd is the serve + loopback pruner-measure demo as a
// test: a worker registers, a job is measured by the fleet, and the
// fleet-backed result is byte-identical to a simulator-backed run of the
// same seed.
func TestFleetEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end tuning")
	}
	_, ts := testServer(t, t.TempDir())
	ws := startWorker(t, ts)

	// The registry sees the worker; healthz counts it live.
	var listing struct {
		Measurers []MeasurerView `json:"measurers"`
	}
	getJSON(t, ts, "/v1/measurers", &listing)
	if len(listing.Measurers) != 1 || !listing.Measurers[0].Live || listing.Measurers[0].URL != ws.URL {
		t.Fatalf("measurer listing: %+v", listing.Measurers)
	}
	var health struct {
		Measurers struct {
			Registered int `json:"registered"`
			Live       int `json:"live"`
		} `json:"measurers"`
	}
	getJSON(t, ts, "/v1/healthz", &health)
	if health.Measurers.Registered != 1 || health.Measurers.Live != 1 {
		t.Fatalf("healthz measurers: %+v", health.Measurers)
	}

	// Fleet-measured job (pipelined) vs simulator-measured job, same seed,
	// both fresh so neither warm-starts from the other's records.
	spec := e2eSpec
	spec.Fresh = true
	spec.Measurer = "fleet"
	spec.PipelineDepth = 2
	v := postJob(t, ts, spec)
	events := drainSSE(t, ts, v.ID)
	last := events[len(events)-1]
	if last.Type != string(StateDone) {
		t.Fatalf("fleet job ended %q (%s)", last.Type, last.Error)
	}
	var sawFleetRound bool
	for _, ev := range events {
		if ev.Type == "round" && ev.Measurer == "fleet" && ev.InFlight >= 1 {
			sawFleetRound = true
		}
	}
	if !sawFleetRound {
		t.Fatal("SSE rounds never reported the fleet measurer")
	}
	fleetJob := getJob(t, ts, v.ID)
	if fleetJob.Result == nil || fleetJob.Result.Measurer != "fleet" {
		t.Fatalf("fleet job result: %+v", fleetJob.Result)
	}

	// Same pipeline depth: results are bitwise identical across backends
	// for a fixed depth (depth itself changes which candidates the search
	// proposes, by design).
	spec2 := e2eSpec
	spec2.Fresh = true
	spec2.Measurer = "simulator"
	spec2.PipelineDepth = spec.PipelineDepth
	v2 := postJob(t, ts, spec2)
	drainSSE(t, ts, v2.ID)
	simJob := getJob(t, ts, v2.ID)
	if simJob.Result == nil || simJob.Result.Measurer != "simulator" {
		t.Fatalf("simulator job result: %+v", simJob.Result)
	}

	// Byte-identical sessions: same curve, same final workload.
	if fleetJob.Result.FinalWorkloadMS != simJob.Result.FinalWorkloadMS {
		t.Fatalf("fleet %.9f ms != simulator %.9f ms",
			fleetJob.Result.FinalWorkloadMS, simJob.Result.FinalWorkloadMS)
	}
	if !reflect.DeepEqual(fleetJob.Result.Curve, simJob.Result.Curve) {
		t.Fatalf("curves diverge:\nfleet %+v\nsim   %+v", fleetJob.Result.Curve, simJob.Result.Curve)
	}

	// The worker actually executed the batches and the registry absorbed
	// the dispatch stats.
	getJSON(t, ts, "/v1/measurers", &listing)
	if listing.Measurers[0].Batches == 0 || listing.Measurers[0].Schedules < e2eSpec.Trials {
		t.Fatalf("registry never absorbed fleet stats: %+v", listing.Measurers[0])
	}

	// Auto (an empty Measurer) picks the fleet while a worker is live.
	auto := e2eSpec
	auto.Fresh = true
	autoMeasurer := func() string {
		t.Helper()
		v := postJob(t, ts, auto)
		drainSSE(t, ts, v.ID)
		res := getJob(t, ts, v.ID).Result
		if res == nil {
			t.Fatalf("auto job %s has no result", v.ID)
		}
		return res.Measurer
	}
	if got := autoMeasurer(); got != "fleet" {
		t.Fatalf("auto job with a live worker measured on %q, want fleet", got)
	}

	// Deregistration: a forced-fleet job now fails, auto falls back to the
	// simulator.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/measurers?url="+ws.URL, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deregister: status %d", resp.StatusCode)
	}
	spec3 := e2eSpec
	spec3.Fresh = true
	spec3.Measurer = "fleet"
	v3 := postJob(t, ts, spec3)
	ev3 := drainSSE(t, ts, v3.ID)
	if last := ev3[len(ev3)-1]; last.Type != string(StateFailed) {
		t.Fatalf("forced-fleet job without workers ended %q, want failed", last.Type)
	}
	if got := autoMeasurer(); got != "simulator" {
		t.Fatalf("auto job without workers measured on %q, want simulator", got)
	}
}

// TestMeasurerRegistrationValidation pins the registry's input checks: a
// malformed URL and an unreachable worker are both rejected, and
// deregistering an unknown worker 404s.
func TestMeasurerRegistrationValidation(t *testing.T) {
	_, ts := testServer(t, t.TempDir())
	registerWorker(t, ts, "not-a-url", http.StatusBadRequest)
	registerWorker(t, ts, "http://127.0.0.1:1", http.StatusBadGateway) // nothing listens there
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/measurers?url=http://nope", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deregistering unknown worker: status %d, want 404", resp.StatusCode)
	}

	// Bad job specs referencing the new fields.
	for name, spec := range map[string]JobSpec{
		"unknown measurer": {Device: "a100", Network: "dcgan", Measurer: "abacus"},
		"absurd depth":     {Device: "a100", Network: "dcgan", PipelineDepth: 10_000},
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
}

// TestMeasurerRegistrationOversizedBody pins the bound on POST
// /v1/measurers bodies: one over maxBodyBytes answers 413 and registers
// no worker.
func TestMeasurerRegistrationOversizedBody(t *testing.T) {
	_, ts := testServer(t, t.TempDir())
	resp, err := http.Post(ts.URL+"/v1/measurers", "application/json", oversizedBody("url"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized measurer body: status %d, want 413", resp.StatusCode)
	}
	var listing struct {
		Measurers []MeasurerView `json:"measurers"`
	}
	getJSON(t, ts, "/v1/measurers", &listing)
	if len(listing.Measurers) != 0 {
		t.Fatalf("oversized body registered workers: %+v", listing.Measurers)
	}
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
