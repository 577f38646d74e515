package measure

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"pruner/internal/ir"
	"pruner/internal/obs"
	"pruner/internal/simulator"
)

// ErrWorkerBuild marks a schedule the remote worker failed to build (the
// wire sentinel latency); it plays the role of the simulator's build
// errors in fleet-measured results.
var ErrWorkerBuild = fmt.Errorf("measure: worker reported failed build")

// FleetOptions configure a Fleet.
type FleetOptions struct {
	// Metrics, when non-nil, receives live per-worker dispatch counters
	// and batch-latency histograms (pruner_fleet_* — see metrics.go).
	// Hand a fleet the daemon's long-lived registry and per-worker
	// totals accumulate across jobs, scrapeable mid-session.
	Metrics *obs.Registry
}

// Fleet fans measurement batches out over remote worker daemons
// (cmd/pruner-measure) via HTTP — the TVM-RPC-runner shape. Batches are
// assigned round-robin; a failing worker is retried on the next one, so a
// batch only errors when every worker refused it. Safe for concurrent
// Measure calls: the pipelined engine keeps up to its depth in flight.
type Fleet struct {
	workers []string
	client  *http.Client
	next    atomic.Int64

	// The dispatch accounting, in the FleetOptions.Metrics registry (nil
	// without one; every use is then a no-op).
	mBatches   *obs.CounterVec
	mSchedules *obs.CounterVec
	mFailures  *obs.CounterVec
	mLatency   *obs.HistogramVec
}

// NewFleet builds a fleet over the given worker base URLs
// ("http://host:port", no trailing slash). Batches are small and workers
// answer in milliseconds, so a request gives up after two minutes.
func NewFleet(urls []string, opts FleetOptions) *Fleet {
	f := &Fleet{workers: append([]string(nil), urls...), client: &http.Client{Timeout: 2 * time.Minute}}
	reg := opts.Metrics
	f.mBatches = reg.CounterVec(MetricFleetBatches,
		"Measurement batches dispatched, by worker URL.", "worker")
	f.mSchedules = reg.CounterVec(MetricFleetSchedules,
		"Schedules measured, by worker URL.", "worker")
	f.mFailures = reg.CounterVec(MetricFleetFailures,
		"Failed dispatch attempts, by worker URL.", "worker")
	f.mLatency = reg.HistogramVec(MetricFleetBatchSeconds,
		"Successful batch round-trip latency, by worker URL.", nil, "worker")
	for _, u := range f.workers {
		// Pre-touch the counters so every worker appears in scrapes from
		// the first one, failures included, at zero.
		f.mBatches.With(u).Add(0)
		f.mSchedules.With(u).Add(0)
		f.mFailures.With(u).Add(0)
	}
	return f
}

// Info reports the fleet's metadata. Workers measure on default
// simulators, so the session applies the default simulator's noise: that
// is what makes a fleet bitwise-interchangeable with the default
// in-process simulator.
func (f *Fleet) Info() Info {
	return Info{Name: "fleet", MeasureNoise: simulator.DefaultMeasureNoise}
}

// note accounts one dispatch attempt to its worker.
func (f *Fleet) note(url string, schedules int, failed bool) {
	if failed {
		f.mFailures.With(url).Inc()
	} else {
		f.mBatches.With(url).Inc()
		f.mSchedules.With(url).Add(float64(schedules))
	}
}

// Measure dispatches the batch to one worker, failing over across the
// fleet. The returned latencies are noise-free; the session applies noise
// at commit like any other backend.
func (f *Fleet) Measure(ctx context.Context, req Request) ([]Result, error) {
	if len(f.workers) == 0 {
		return nil, fmt.Errorf("measure: fleet has no workers")
	}
	body, err := encodeRequest(req)
	if err != nil {
		return nil, fmt.Errorf("measure: encoding batch: %w", err)
	}
	start := int(f.next.Add(1) - 1)
	var lastErr error
	for attempt := 0; attempt < len(f.workers); attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		url := f.workers[(start+attempt)%len(f.workers)]
		postStart := time.Now()
		results, err := f.post(ctx, url, body, req)
		if err == nil {
			f.note(url, len(req.Batch), false)
			f.mLatency.With(url).Observe(time.Since(postStart).Seconds())
			return results, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		f.note(url, 0, true)
		lastErr = fmt.Errorf("%s: %w", url, err)
	}
	return nil, fmt.Errorf("measure: all %d fleet workers failed: %w", len(f.workers), lastErr)
}

// post executes one batch on one worker and decodes the response through
// the record codec, in request order.
func (f *Fleet) post(ctx context.Context, url string, body []byte, req Request) ([]Result, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/measure", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := f.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(msg, &e) == nil && e.Error != "" {
			return nil, fmt.Errorf("worker: %s", e.Error)
		}
		return nil, fmt.Errorf("worker: HTTP %d", resp.StatusCode)
	}
	recs, err := ReadRecords(resp.Body, []*ir.Task{req.Task})
	if err != nil {
		return nil, err
	}
	if len(recs) != len(req.Batch) {
		return nil, fmt.Errorf("measure: worker %s returned %d results for a batch of %d", url, len(recs), len(req.Batch))
	}
	results := make([]Result, len(recs))
	for i, r := range recs {
		if math.IsInf(r.Latency, 1) || math.IsNaN(r.Latency) || r.Latency <= 0 {
			results[i] = Result{Latency: math.Inf(1), Err: ErrWorkerBuild}
			continue
		}
		results[i] = Result{Latency: r.Latency, Valid: true}
	}
	return results, nil
}
