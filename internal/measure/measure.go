// Package measure is the pluggable measurement subsystem: the stage of a
// tuning session that turns a proposed schedule batch into latencies. The
// paper's Table 1 shows on-device measurement is the single largest slice
// of tuning wall-clock (~44 of ~85 minutes on Orin), which makes it the
// stage worth distributing — so the tuner talks to a Measurer interface
// instead of a concrete simulator, and the engine can keep searching while
// a batch is out being measured (tuner.Options.PipelineDepth).
//
// Three implementations ship:
//
//   - Sim wraps the in-process *simulator.Simulator — the historical
//     behaviour, and the default.
//   - Fleet fans batches out over remote worker daemons via HTTP, in the
//     style of TVM's RPC runner, using the store's record codec as the
//     wire format (codec.go).
//   - Worker is the serving half of the fleet: the HTTP handler that
//     cmd/pruner-measure exposes and registers with pruner-serve. It
//     measures every batch through a Sim over the device's default
//     simulator, so there is one batch-measurement loop.
//
// Determinism contract: a Measurer returns the *true* (noise-free) latency
// of every schedule; the session applies measurement noise itself, at
// commit time, from the task's own random stream (simulator.ApplyNoise).
// Splitting the noise out of the backend is what makes simulator-backed
// and fleet-backed sessions bitwise identical for the same seed: both
// paths feed the same deterministic latencies into the same noise draws.
package measure

import (
	"context"
	"math"
	"sync/atomic"

	"pruner/internal/ir"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
	"pruner/internal/simulator"
)

// Result is one measurement outcome. It aliases the simulator's result
// type so the in-process adapter is a zero-copy wrapper.
type Result = simulator.Result

// Info is a Measurer's metadata, consulted by the tuning engine when it
// assembles the pipeline.
type Info struct {
	// Name identifies the backend in progress events and job results
	// ("simulator", "fleet").
	Name string
	// MeasureNoise is the multiplicative noise stddev the session applies
	// per valid result at commit time (simulator.ApplyNoise).
	MeasureNoise float64
}

// Request is one measurement batch. Task and Batch are required; the rest
// are optional execution context used by in-process implementations.
type Request struct {
	// Device names the platform to measure on (device.ByName key). Remote
	// measurers need it; in-process ones are already bound to a device.
	Device string
	// Task is the subgraph the batch's schedules belong to.
	Task *ir.Task
	// Batch is the schedules to measure, one Result each, in order.
	Batch []*schedule.Schedule
	// Pool optionally bounds an in-process measurer's fan-out.
	Pool *parallel.Pool
}

// Measurer executes measurement batches. Implementations must be safe for
// concurrent Measure calls (the pipelined engine keeps several batches in
// flight) and must return exactly one Result per Request.Batch entry, in
// order, with *noise-free* latencies — the session owns the noise draws.
// A cancelled ctx should abort promptly; returning ctx.Err() makes the
// session mark itself interrupted without committing the batch.
type Measurer interface {
	Info() Info
	Measure(ctx context.Context, req Request) ([]Result, error)
}

// Sim is the in-process adapter: a Measurer over *simulator.Simulator
// that observes cancellation between schedules mid-batch.
type Sim struct {
	sim *simulator.Simulator
}

// NewSim wraps a simulator in the Measurer interface.
func NewSim(s *simulator.Simulator) *Sim { return &Sim{sim: s} }

// Info reports the adapter's metadata; the noise scale is the wrapped
// simulator's, so sessions keep their configured measurement noise.
func (m *Sim) Info() Info {
	return Info{Name: "simulator", MeasureNoise: m.sim.MeasureNoise()}
}

// Measure evaluates the batch's true latencies on the request pool,
// lowering each schedule itself. Cancellation is checked between
// schedules: a cancelled ctx abandons the remainder of the batch and
// returns ctx.Err().
func (m *Sim) Measure(ctx context.Context, req Request) ([]Result, error) {
	out := make([]Result, len(req.Batch))
	var canceled atomic.Bool
	req.Pool.ForEach(len(req.Batch), func(i int) {
		if canceled.Load() {
			return
		}
		if ctx.Err() != nil {
			canceled.Store(true)
			return
		}
		lat, err := m.sim.Latency(req.Task, req.Batch[i])
		if err != nil {
			out[i] = Result{Latency: math.Inf(1), Err: err}
			return
		}
		out[i] = Result{Latency: lat, Valid: true}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
