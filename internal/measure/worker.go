package measure

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pruner/internal/costmodel"
	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/obs"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
	"pruner/internal/simulator"
)

// wireHeader is the first line of a fleet measurement request: the device
// to measure on and the full task definition (the worker holds no session
// state, so every batch is self-describing — TVM-RPC-runner style).
type wireHeader struct {
	Device string   `json:"device"`
	Task   *ir.Task `json:"task"`
}

// WorkerOptions configure a measurement worker.
type WorkerOptions struct {
	// Pool bounds the worker's measurement fan-out; nil sizes one to the
	// machine.
	Pool *parallel.Pool
	// Metrics, when non-nil, exposes the worker's counters as
	// func-backed metrics (pruner_worker_* — see metrics.go) and mounts
	// GET /metrics on the worker's handler.
	Metrics *obs.Registry
}

// Worker executes measurement batches on behalf of remote tuning
// sessions: the serving half of a Fleet, exposed over HTTP by
// cmd/pruner-measure. It measures through a Sim over each device's
// default simulator and returns true (noise-free) latencies — the
// session applies measurement noise at commit, which is what keeps
// fleet-measured sessions bitwise identical to simulator-backed ones.
type Worker struct {
	opts WorkerOptions

	mu   sync.Mutex
	sims map[string]*Sim

	batches   atomic.Int64
	schedules atomic.Int64
	busy      atomic.Int64

	measureSeconds *obs.Histogram // nil without WorkerOptions.Metrics
}

// NewWorker builds a worker.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.Pool == nil {
		opts.Pool = parallel.New(0)
	}
	w := &Worker{opts: opts, sims: map[string]*Sim{}}
	if reg := opts.Metrics; reg != nil {
		// Func-backed counters sample the same atomics /healthz reports,
		// so a scrape and a health check can never disagree.
		reg.CounterFunc(MetricWorkerBatches, "Measurement batches executed.",
			func() float64 { return float64(w.batches.Load()) })
		reg.CounterFunc(MetricWorkerSchedules, "Schedules executed.",
			func() float64 { return float64(w.schedules.Load()) })
		reg.GaugeFunc(MetricWorkerBusy, "In-flight measure requests.",
			func() float64 { return float64(w.busy.Load()) })
		w.measureSeconds = reg.Histogram(MetricWorkerMeasureSeconds,
			"Per-batch execution latency.", nil)
	}
	return w
}

// sim returns the worker's adapter for a device, building it on first
// use. One worker serves any preset device: the fleet routes by batch,
// not by worker identity.
func (w *Worker) sim(name string) (*Sim, error) {
	dev, err := device.ByName(name)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.sims[dev.Name]
	if s == nil {
		s = NewSim(simulator.New(dev))
		w.sims[dev.Name] = s
	}
	return s, nil
}

// WorkerStatus is the worker's /healthz body.
type WorkerStatus struct {
	Status      string `json:"status"`
	Batches     int64  `json:"batches"`
	Schedules   int64  `json:"schedules"`
	Busy        int64  `json:"busy"`
	Parallelism int    `json:"parallelism"`
}

// Status snapshots the worker's counters.
func (w *Worker) Status() WorkerStatus {
	return WorkerStatus{
		Status:      "ok",
		Batches:     w.batches.Load(),
		Schedules:   w.schedules.Load(),
		Busy:        w.busy.Load(),
		Parallelism: w.opts.Pool.Workers(),
	}
}

// Handler returns the worker's HTTP surface:
//
//	POST /measure  execute one batch (wire format: header line + record
//	               lines; 413 over maxMeasureBodyBytes)
//	GET  /healthz  liveness + counters
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /measure", w.handleMeasure)
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(rw).Encode(w.Status()) // response write failure is the client's problem
	})
	if reg := w.opts.Metrics; reg != nil {
		mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, r *http.Request) {
			rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = reg.WriteText(rw) // scrape write failure is the scraper's problem
		})
	}
	return mux
}

func (w *Worker) handleMeasure(rw http.ResponseWriter, r *http.Request) {
	w.busy.Add(1)
	defer w.busy.Add(-1)

	sim, recs, err := w.readBatch(http.MaxBytesReader(rw, r.Body, maxMeasureBodyBytes))
	if err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		workerError(rw, code, "%v", err)
		return
	}

	// Measure true latencies on the worker pool. A cancelled request
	// (the session aborting the round) stops between schedules and
	// writes nothing.
	batch := make([]*schedule.Schedule, len(recs))
	for i, rec := range recs {
		batch[i] = rec.Sched
	}
	execStart := time.Now()
	results, err := sim.Measure(r.Context(), Request{Task: recs[0].Task, Batch: batch, Pool: w.opts.Pool})
	if err != nil {
		return // client gone; nothing useful to write
	}
	for i, res := range results {
		if !res.Valid {
			res.Latency = math.Inf(1) // the codec's failed-build sentinel
		}
		recs[i].Latency = res.Latency
	}
	w.batches.Add(1)
	w.schedules.Add(int64(len(recs)))
	w.measureSeconds.Observe(time.Since(execStart).Seconds())

	rw.Header().Set("Content-Type", "application/x-ndjson")
	if err := WriteRecords(rw, recs); err != nil {
		// Headers are out; all we can do is drop the connection so the
		// fleet sees a short read instead of a silently truncated batch.
		if hj, ok := rw.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				_ = conn.Close() // dropping the connection IS the error signal here
			}
		}
	}
}

// maxMeasureBodyBytes bounds a POST /measure body. The widest record line
// is 269 bytes and the widest header 680 (every model-zoo task, 64
// random schedules each), so the bound holds 3,895 schedules: a batch of
// 1,024 with room to spare, and any the daemon's default cap admits.
const maxMeasureBodyBytes = 1 << 20

// readBatch decodes a POST /measure body — the header line, then the
// record lines of a non-empty batch of the header's task — and returns
// the simulator of the header's device with the batch.
func (w *Worker) readBatch(body io.Reader) (*Sim, []costmodel.Record, error) {
	br := bufio.NewReader(body)
	head, err := br.ReadBytes('\n')
	if err != nil && (len(head) == 0 || !errors.Is(err, io.EOF)) {
		return nil, nil, fmt.Errorf("reading request header: %w", err)
	}
	var hdr wireHeader
	if err := json.Unmarshal(head, &hdr); err != nil {
		return nil, nil, fmt.Errorf("decoding request header: %w", err)
	}
	if hdr.Task == nil {
		return nil, nil, errors.New("request header carries no task")
	}
	if err := hdr.Task.Validate(); err != nil {
		return nil, nil, fmt.Errorf("invalid task: %w", err)
	}
	sim, err := w.sim(hdr.Device)
	if err != nil {
		return nil, nil, err
	}
	recs, err := ReadRecords(br, []*ir.Task{hdr.Task})
	if err != nil {
		return nil, nil, fmt.Errorf("decoding batch: %w", err)
	}
	if len(recs) == 0 {
		return nil, nil, errors.New("empty batch")
	}
	return sim, recs, nil
}

func workerError(rw http.ResponseWriter, code int, format string, args ...any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	_ = json.NewEncoder(rw).Encode(map[string]string{"error": fmt.Sprintf(format, args...)}) // best-effort error body
}

// encodeRequest serialises a Request into the wire form the worker reads.
// Latencies are not known yet, so every line carries the -1 sentinel.
func encodeRequest(req Request) ([]byte, error) {
	var buf bytes.Buffer
	hdr, err := json.Marshal(wireHeader{Device: req.Device, Task: req.Task})
	if err != nil {
		return nil, err
	}
	buf.Write(hdr)
	buf.WriteByte('\n')
	recs := make([]costmodel.Record, len(req.Batch))
	for i, s := range req.Batch {
		recs[i] = costmodel.Record{Task: req.Task, Sched: s, Latency: math.Inf(1)}
	}
	if err := WriteRecords(&buf, recs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
