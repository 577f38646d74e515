package server

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"pruner/internal/obs"
)

// JobState is a job's lifecycle state. A job moves queued -> running ->
// done/failed/canceled; store-served jobs are born done. The type exists
// so the state machine is a closed enum: pruner-vet's exhaust analyzer
// requires every switch over it to name all five states.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// JobSpec is the request body of POST /v1/jobs.
type JobSpec struct {
	// Device and Network name a preset platform and workload.
	Device  string `json:"device"`
	Network string `json:"network"`
	// Method is a pruner.Method name; empty selects "pruner".
	Method string `json:"method,omitempty"`
	// Trials / BatchSize / Seed / MaxTasks / TensorCore mirror
	// pruner.Config; zero values take the library defaults (except
	// Trials, which the server caps with its own default budget).
	Trials     int   `json:"trials,omitempty"`
	BatchSize  int   `json:"batch_size,omitempty"`
	Seed       int64 `json:"seed,omitempty"`
	MaxTasks   int   `json:"max_tasks,omitempty"`
	TensorCore bool  `json:"tensorcore,omitempty"`
	// Fresh skips the store's cache-hit answer and warm-start history,
	// forcing a from-scratch search (ablations, store repair).
	Fresh bool `json:"fresh,omitempty"`
	// Measurer selects the measurement backend: "auto" (default — the
	// registered worker fleet when one is live, the in-process simulator
	// otherwise), "simulator", or "fleet" (fails when no workers are
	// registered). Results are bitwise identical across backends for the
	// same seed.
	Measurer string `json:"measurer,omitempty"`
	// PipelineDepth bounds the session's in-flight measurement rounds
	// (tuner pipelining); 0/1 is the serial loop. Ignored when
	// AdaptBudget is set (the controller owns the depth).
	PipelineDepth int `json:"pipeline_depth,omitempty"`
	// AdaptBudget enables the calibration-driven budget controller: the
	// session shrinks its verify/measure batch, widens its LSE draft
	// set and deepens its pipeline as the cost model proves calibrated,
	// measuring fewer candidates for the same trials budget. Round
	// events then carry calib_error / verify_budget / draft_budget /
	// target_depth.
	AdaptBudget bool `json:"adapt_budget,omitempty"`
}

// Event is one SSE frame of job progress. Type is one of "queued",
// "started", "round", "done", "failed", "canceled".
type Event struct {
	Type string `json:"type"`
	// Round fields (type "round"), mirroring tuner.ProgressEvent.
	Round      int     `json:"round"`
	Rounds     int     `json:"rounds,omitempty"`
	Task       string  `json:"task,omitempty"`
	Trials     int     `json:"trials,omitempty"`
	SimSeconds float64 `json:"sim_seconds,omitempty"`
	WorkloadMS float64 `json:"workload_ms,omitempty"`
	TaskBestMS float64 `json:"task_best_ms,omitempty"`
	// WarmRecords on the "started" event is how much store history seeded
	// the session.
	WarmRecords int `json:"warm_records,omitempty"`
	// Measurer names the backend measuring this job's batches; on round
	// events InFlight is the pipeline window's utilisation when the round
	// committed — together they show whether a job's wall-clock is going
	// to search or to measurement wait.
	Measurer string `json:"measurer,omitempty"`
	InFlight int    `json:"in_flight,omitempty"`
	// RoundMillis is the wall-clock duration of the round, stamped by the
	// serving layer at the commit boundary (the deterministic engine
	// never reads a real clock, so the tuner cannot report this itself).
	RoundMillis int64 `json:"round_millis,omitempty"`
	// Adaptive-controller state (adapt_budget jobs only): the smoothed
	// rank error after this round's commit and the budgets in force when
	// it was planned. Absent on fixed-budget jobs.
	CalibError   float64 `json:"calib_error,omitempty"`
	VerifyBudget int     `json:"verify_budget,omitempty"`
	DraftBudget  int     `json:"draft_budget,omitempty"`
	TargetDepth  int     `json:"target_depth,omitempty"`
	// Terminal fields.
	Source          string `json:"source,omitempty"`
	NewMeasurements int    `json:"new_measurements,omitempty"`
	Error           string `json:"error,omitempty"`
}

// BestView is one task's best stored schedule, as served by /v1/best and
// embedded in terminal job results.
type BestView struct {
	TaskID    string          `json:"task_id"`
	TaskName  string          `json:"task_name"`
	Weight    int             `json:"weight"`
	LatencyUS float64         `json:"latency_us"`
	Records   int             `json:"stored_records"`
	Record    json.RawMessage `json:"record"`
}

// JobResult summarises a terminal job.
type JobResult struct {
	// Source is "tuned" for a fresh search, "store" when the request was
	// answered from persisted history without searching.
	Source string `json:"source"`
	// FinalWorkloadMS is the weighted workload latency over task bests.
	FinalWorkloadMS float64 `json:"final_workload_ms"`
	// WarmRecords / NewMeasurements split the session's record log:
	// history replayed from the store vs. measurements this job paid for.
	WarmRecords     int `json:"warm_records"`
	NewMeasurements int `json:"new_measurements"`
	// Interrupted marks a canceled job's partial result.
	Interrupted bool `json:"interrupted,omitempty"`
	// Measurer names the backend that measured the job's batches.
	Measurer string `json:"measurer,omitempty"`
	// SimCompileSeconds is the session's simulated tuning cost.
	SimCompileSeconds float64 `json:"sim_compile_seconds"`
	// Curve is the round-by-round tuning curve (absent on store hits).
	Curve []CurveView `json:"curve,omitempty"`
	// Best lists the per-task best schedules after the job.
	Best []BestView `json:"best,omitempty"`
}

// CurveView is one tuning-curve sample in API form.
type CurveView struct {
	Round      int     `json:"round"`
	Trials     int     `json:"trials"`
	SimSeconds float64 `json:"sim_seconds"`
	WorkloadMS float64 `json:"workload_ms"`
}

// jobView is the job representation served by the status endpoints.
type jobView struct {
	ID        string     `json:"id"`
	State     JobState   `json:"state"`
	Spec      JobSpec    `json:"spec"`
	Error     string     `json:"error,omitempty"`
	Result    *JobResult `json:"result,omitempty"`
	EventsURL string     `json:"events_url"`
}

// job is one tuning request's full lifecycle. The mutex guards state,
// events and result; notify is closed and replaced on every change so SSE
// readers can wait without polling.
type job struct {
	id   string
	spec JobSpec
	// states mirrors the job's lifecycle into the daemon's jobs-by-state
	// gauge (nil-safe); enqueuedAt, the admission time, feeds the
	// queue-wait histogram.
	states     *obs.GaugeVec
	enqueuedAt time.Time
	// ctx is the job's lifetime, a child of the daemon's: DELETE cancels
	// it, the session tunes under it, and the terminal transition
	// releases it.
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	state  JobState
	events []Event
	notify chan struct{}
	result *JobResult
	errMsg string
}

func newJob(parent context.Context, id string, spec JobSpec, states *obs.GaugeVec) *job {
	j := &job{id: id, spec: spec, states: states, enqueuedAt: time.Now(), state: StateQueued, notify: make(chan struct{})}
	j.ctx, j.cancel = context.WithCancel(parent)
	j.events = append(j.events, Event{Type: string(StateQueued)})
	j.states.With(string(StateQueued)).Add(1)
	return j
}

// publish appends an event (optionally moving the job to a new state) and
// wakes all SSE subscribers.
func (j *job) publish(state JobState, ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.publishLocked(state, ev)
}

// publishLocked is publish with j.mu held; it also moves the job's gauge
// contribution between lifecycle states.
func (j *job) publishLocked(state JobState, ev Event) {
	if state != "" && state != j.state {
		j.states.With(string(j.state)).Add(-1)
		j.states.With(string(state)).Add(1)
		j.state = state
	}
	j.events = append(j.events, ev)
	close(j.notify)
	j.notify = make(chan struct{})
}

// finish moves the job to a terminal state with its result, emits the
// terminal event and releases the job's context.
func (j *job) finish(state JobState, res *JobResult, errMsg string) {
	ev := Event{Type: string(state), Error: errMsg}
	if res != nil {
		ev.Source = res.Source
		ev.NewMeasurements = res.NewMeasurements
		ev.WorkloadMS = res.FinalWorkloadMS
		ev.SimSeconds = res.SimCompileSeconds
	}
	j.mu.Lock()
	j.result = res
	j.errMsg = errMsg
	j.publishLocked(state, ev)
	j.mu.Unlock()
	j.cancel()
}

// terminal reports whether the state accepts no further events. The
// switch is exhaustive over JobState by design: adding a sixth state
// forces a decision here (enforced by pruner-vet's exhaust analyzer).
func terminal(state JobState) bool {
	switch state {
	case StateDone, StateFailed, StateCanceled:
		return true
	case StateQueued, StateRunning:
		return false
	}
	return false
}

// snapshot returns the events from index i on, the channel that signals
// the next change, and whether the job is terminal. SSE handlers loop:
// drain, then wait on the channel.
func (j *job) snapshot(i int) (evs []Event, changed <-chan struct{}, done bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i < len(j.events) {
		evs = append(evs, j.events[i:]...)
	}
	return evs, j.notify, terminal(j.state)
}

func (j *job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobView{
		ID:        j.id,
		State:     j.state,
		Spec:      j.spec,
		Error:     j.errMsg,
		Result:    j.result,
		EventsURL: "/v1/jobs/" + j.id + "/events",
	}
}
