package measure

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"pruner/internal/costmodel"
	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/obs"
	"pruner/internal/schedule"
	"pruner/internal/simulator"
)

func testBatch(t *testing.T, n int) (*ir.Task, []*schedule.Schedule) {
	t.Helper()
	task := ir.NewMatMul(256, 256, 128, ir.FP32, 1)
	gen := schedule.NewGenerator(task)
	gen.MaxThreads = device.T4.MaxThreads
	gen.MaxSharedWords = device.T4.SharedPerBlock
	rng := rand.New(rand.NewSource(11))
	schs := make([]*schedule.Schedule, n)
	for i := range schs {
		schs[i] = gen.Random(rng)
	}
	return task, schs
}

// TestCodecExactRoundTrip pins the wire/store format's fidelity: finite
// latencies survive a write/read cycle bitwise (via latency_bits), and
// every non-finite or negative latency maps to the +Inf failed-build
// sentinel.
func TestCodecExactRoundTrip(t *testing.T) {
	task, schs := testBatch(t, 6)
	lats := []float64{
		1.2345678901234567e-3, // full float64 precision
		math.Nextafter(1e-6, 2e-6),
		7.777777777777777e-2,
		math.Inf(1), // failed build
		math.NaN(),  // poisoned measurement -> sentinel
		-1.5e-3,     // negative -> sentinel
	}
	recs := make([]costmodel.Record, len(lats))
	for i, lat := range lats {
		recs[i] = costmodel.Record{Task: task, Sched: schs[i], Latency: lat}
	}
	var buf bytes.Buffer
	if err := WriteRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecords(&buf, []*ir.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip lost records: %d -> %d", len(recs), len(got))
	}
	for i, r := range got {
		want := lats[i]
		if math.IsNaN(want) || math.IsInf(want, 0) || want < 0 {
			if !math.IsInf(r.Latency, 1) {
				t.Fatalf("record %d: invalid latency %g decoded as %g, want +Inf", i, want, r.Latency)
			}
			continue
		}
		if math.Float64bits(r.Latency) != math.Float64bits(want) {
			t.Fatalf("record %d: latency not bitwise preserved: %x -> %x",
				i, math.Float64bits(want), math.Float64bits(r.Latency))
		}
		if r.Sched.Fingerprint() != schs[i].Fingerprint() {
			t.Fatalf("record %d: schedule changed across round trip", i)
		}
	}
}

// TestCodecLegacyLinesStillRead pins backward compatibility: record lines
// written before latency_bits existed (only latency_us) still decode.
func TestCodecLegacyLinesStillRead(t *testing.T) {
	task, schs := testBatch(t, 1)
	var buf bytes.Buffer
	if err := WriteRecords(&buf, []costmodel.Record{{Task: task, Sched: schs[0], Latency: 2.5e-3}}); err != nil {
		t.Fatal(err)
	}
	legacy := bytes.ReplaceAll(buf.Bytes(), []byte(`,"latency_bits":"`), []byte(`,"ignored":"`))
	got, err := ReadRecords(bytes.NewReader(legacy), []*ir.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Latency != 2.5e-3 {
		t.Fatalf("legacy line decoded as %+v", got)
	}
}

// TestWorkerFleetMatchesSimulator is the wire-fidelity contract: a batch
// measured through a loopback worker (HTTP round trip included) returns
// exactly the simulator's deterministic true latencies, bit for bit.
func TestWorkerFleetMatchesSimulator(t *testing.T) {
	task, schs := testBatch(t, 24)
	worker := NewWorker(WorkerOptions{})
	ws := httptest.NewServer(worker.Handler())
	defer ws.Close()

	reg := obs.NewRegistry()
	fleet := NewFleet([]string{ws.URL}, FleetOptions{Metrics: reg})
	if info := fleet.Info(); info.Name != "fleet" || info.MeasureNoise != simulator.DefaultMeasureNoise {
		t.Fatalf("fleet info: %+v", info)
	}
	results, err := fleet.Measure(context.Background(), Request{
		Device: device.T4.Name, Task: task, Batch: schs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(schs) {
		t.Fatalf("got %d results for %d schedules", len(results), len(schs))
	}
	sim := simulator.New(device.T4)
	valid := 0
	for i, r := range results {
		lat, lerr := sim.Latency(task, schs[i])
		if lerr != nil {
			if r.Valid {
				t.Fatalf("schedule %d: local build fails (%v) but worker measured %g", i, lerr, r.Latency)
			}
			continue
		}
		valid++
		if !r.Valid {
			t.Fatalf("schedule %d: local build ok but worker reported failure: %v", i, r.Err)
		}
		if math.Float64bits(r.Latency) != math.Float64bits(lat) {
			t.Fatalf("schedule %d: fleet latency %x != simulator %x",
				i, math.Float64bits(r.Latency), math.Float64bits(lat))
		}
	}
	if valid == 0 {
		t.Fatal("no valid schedules in the batch; test is vacuous")
	}
	if st := worker.Status(); st.Batches != 1 || st.Schedules != int64(len(schs)) {
		t.Fatalf("worker status %+v", st)
	}
	batches, _ := reg.Value(MetricFleetBatches, ws.URL)
	scheduled, _ := reg.Value(MetricFleetSchedules, ws.URL)
	failures, _ := reg.Value(MetricFleetFailures, ws.URL)
	if batches != 1 || scheduled != float64(len(schs)) || failures != 0 {
		t.Fatalf("fleet accounting: %v batches, %v schedules, %v failures", batches, scheduled, failures)
	}
}

// TestFleetFailover pins the retry path: a dead worker is skipped, the
// batch lands on the live one, and the failure is accounted.
func TestFleetFailover(t *testing.T) {
	task, schs := testBatch(t, 8)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"worker on fire"}`, http.StatusInternalServerError)
	}))
	defer dead.Close()
	live := httptest.NewServer(NewWorker(WorkerOptions{}).Handler())
	defer live.Close()

	reg := obs.NewRegistry()
	fleet := NewFleet([]string{dead.URL, live.URL}, FleetOptions{Metrics: reg})
	for i := 0; i < 2; i++ { // rotation must find the live worker from any start
		if _, err := fleet.Measure(context.Background(), Request{Device: "t4", Task: task, Batch: schs}); err != nil {
			t.Fatalf("dispatch %d: %v", i, err)
		}
	}
	deadFailures, _ := reg.Value(MetricFleetFailures, dead.URL)
	liveBatches, _ := reg.Value(MetricFleetBatches, live.URL)
	if liveBatches != 2 {
		t.Fatalf("live worker served %v batches, want 2", liveBatches)
	}
	if deadFailures == 0 {
		t.Fatal("dead worker's failures were not accounted")
	}
}

// TestFleetAllWorkersFail pins the terminal error: when every worker
// refuses the batch the fleet reports it instead of fabricating results.
func TestFleetAllWorkersFail(t *testing.T) {
	task, schs := testBatch(t, 4)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"nope"}`, http.StatusServiceUnavailable)
	}))
	defer dead.Close()
	fleet := NewFleet([]string{dead.URL}, FleetOptions{})
	if _, err := fleet.Measure(context.Background(), Request{Device: "t4", Task: task, Batch: schs}); err == nil {
		t.Fatal("expected an error when all workers fail")
	}
}

// TestSimAdapterCancellation pins mid-batch cancellation: a cancelled
// context aborts the adapter instead of measuring the whole batch.
func TestSimAdapterCancellation(t *testing.T) {
	task, schs := testBatch(t, 64)
	m := NewSim(simulator.New(device.T4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Measure(ctx, Request{Task: task, Batch: schs}); err != context.Canceled {
		t.Fatalf("cancelled adapter returned %v, want context.Canceled", err)
	}
}

// TestWorkerCancelledRequest pins the worker's cancel branch: a batch
// whose request context is already cancelled (the session abandoned the
// round) writes no record lines and is not counted as executed.
func TestWorkerCancelledRequest(t *testing.T) {
	task, schs := testBatch(t, 16)
	body, err := encodeRequest(Request{Device: device.T4.Name, Task: task, Batch: schs})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	worker := NewWorker(WorkerOptions{})
	rec := httptest.NewRecorder()
	worker.Handler().ServeHTTP(rec, httptest.NewRequestWithContext(ctx, http.MethodPost, "/measure", bytes.NewReader(body)))
	if rec.Body.Len() != 0 {
		t.Fatalf("cancelled request wrote %q", rec.Body.String())
	}
	if st := worker.Status(); st.Batches != 0 || st.Schedules != 0 {
		t.Fatalf("cancelled batch was counted as executed: %+v", st)
	}
}

// TestWorkerBodyBound pins the worker's request bound: a body of exactly
// maxMeasureBodyBytes (a batch padded with blank lines, which the codec
// skips) is measured, and one byte more is refused with 413 and counted
// as nothing executed.
func TestWorkerBodyBound(t *testing.T) {
	task, schs := testBatch(t, 16)
	body, err := encodeRequest(Request{Device: device.T4.Name, Task: task, Batch: schs})
	if err != nil {
		t.Fatal(err)
	}
	pad := func(n int) []byte {
		return append(bytes.Clone(body), bytes.Repeat([]byte{'\n'}, n-len(body))...)
	}
	worker := NewWorker(WorkerOptions{})
	post := func(b []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		worker.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/measure", bytes.NewReader(b)))
		return rec
	}
	if rec := post(pad(maxMeasureBodyBytes)); rec.Code != http.StatusOK {
		t.Fatalf("body at the bound: status %d (%s), want 200", rec.Code, rec.Body)
	}
	rec := post(pad(maxMeasureBodyBytes + 1))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body one byte over the bound: status %d (%s), want 413", rec.Code, rec.Body)
	}
	if st := worker.Status(); st.Batches != 1 || st.Schedules != int64(len(schs)) {
		t.Fatalf("worker counted %+v, want only the batch at the bound", st)
	}
}

// TestSimAdapterMatchesMeasure pins the adapter against the historical
// simulator entry point: true latencies identical, and after session-side
// ApplyNoise the full results match Simulator.Measure bitwise (same noise
// stream, same draw order).
func TestSimAdapterMatchesMeasure(t *testing.T) {
	task, schs := testBatch(t, 16)
	sim := simulator.New(device.T4)
	m := NewSim(sim)
	results, err := m.Measure(context.Background(), Request{Task: task, Batch: schs})
	if err != nil {
		t.Fatal(err)
	}
	simulator.ApplyNoise(results, rand.New(rand.NewSource(3)), m.Info().MeasureNoise)
	want := sim.Measure(task, schs, rand.New(rand.NewSource(3)))
	for i := range want {
		if results[i].Valid != want[i].Valid ||
			math.Float64bits(results[i].Latency) != math.Float64bits(want[i].Latency) {
			t.Fatalf("result %d diverges from Measure: %+v vs %+v", i, results[i], want[i])
		}
	}
}

// TestWorkerRejectsGarbage pins the worker's input validation.
func TestWorkerRejectsGarbage(t *testing.T) {
	ws := httptest.NewServer(NewWorker(WorkerOptions{}).Handler())
	defer ws.Close()
	for name, body := range map[string]string{
		"no header":      "",
		"bad json":       "{nope\n",
		"no task":        `{"device":"t4"}` + "\n",
		"unknown device": `{"device":"h900","task":null}` + "\n",
	} {
		resp, err := http.Post(ws.URL+"/measure", "application/x-ndjson", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}
