package pruner

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"

	"pruner/internal/costmodel"
	"pruner/internal/dataset"
	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/measure"
	"pruner/internal/nn"
	"pruner/internal/obs"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
	"pruner/internal/simulator"
	"pruner/internal/tuner"
	"pruner/internal/vendorlib"
	"pruner/internal/workloads"
)

// Re-exported core types. External importers cannot reach the internal
// packages directly; these aliases are the supported surface.
type (
	// Device is a GPU platform model.
	Device = device.Device
	// Task is one fused-subgraph tuning unit.
	Task = ir.Task
	// Network is a partitioned DNN workload.
	Network = workloads.Network
	// Schedule is a point in the tiling search space.
	Schedule = schedule.Schedule
	// Result is a tuning-session outcome (curve, per-task bests, clock).
	Result = tuner.Result
	// CurvePoint samples the tuning curve.
	CurvePoint = tuner.CurvePoint
	// Record is one measured tensor program.
	Record = costmodel.Record
	// Dataset is a TenSet-style measured schedule collection.
	Dataset = dataset.Dataset
	// Model is a cost model (learned or analytical).
	Model = costmodel.Model
	// ProgressEvent is one round of live session progress (Config.Progress).
	ProgressEvent = tuner.ProgressEvent
	// Pool is a shared worker budget; sessions handed the same Pool never
	// exceed its concurrency in total (the tuning daemon relies on this).
	Pool = parallel.Pool
	// Measurer is a pluggable measurement backend (Config.Measurer): the
	// in-process simulator adapter, a remote worker fleet, or a custom
	// implementation. See internal/measure for the contract.
	Measurer = measure.Measurer
	// Fleet fans measurement batches out over remote pruner-measure
	// workers via HTTP (build one with NewFleet).
	Fleet = measure.Fleet
	// MeasureWorker executes measurement batches for remote sessions; its
	// Handler is the HTTP surface cmd/pruner-measure serves.
	MeasureWorker = measure.Worker
	// Observer bundles the observability spine (metrics registry + trace
	// sink + the clock that times spans). Hand one to Config.Obs,
	// NewObservedFleet or NewObservedMeasureWorker; a nil Observer
	// disarms every instrument at zero cost. See internal/obs.
	Observer = obs.Observer
)

// NewObserver builds a wall-clock Observer for daemons and CLIs: the
// single place real time enters the stack. Deterministic layers only see
// the clock through injection, and clock readings flow into metrics and
// spans only — never into tuning results, so armed sessions stay bitwise
// identical to unarmed ones. traceCap bounds the span ring buffer
// (<= 0 selects the default).
func NewObserver(traceCap int) *Observer { return obs.New(obs.RealClock(), traceCap) }

// Fleet and worker metric names, re-exported so the serving daemon can
// read per-worker dispatch accounting back out of the registry it handed
// NewObservedFleet (the server talks to the measurement subsystem
// through this facade).
const (
	MetricFleetBatches   = measure.MetricFleetBatches
	MetricFleetSchedules = measure.MetricFleetSchedules
	MetricFleetFailures  = measure.MetricFleetFailures
)

// Engine metric names registered by RegisterEngineMetrics.
const (
	MetricNNGEMMCalls    = "pruner_nn_gemm_calls_total"
	MetricNNGEMMRows     = "pruner_nn_gemm_rows_total"
	MetricNNAttnSegments = "pruner_nn_attention_segments_total"
)

// WriteTrace dumps o's span ring buffer as indented JSON to w — the same
// payload the daemon serves at GET /v1/trace (pruner-tune's -trace-out).
// Nil-safe: an unarmed observer dumps an empty trace.
func WriteTrace(o *Observer, w io.Writer) error { return o.Sink().WriteJSON(w) }

// RegisterEngineMetrics exposes the nn inference engine's process-wide
// kernel counters on o's registry as func-backed metrics, sampled at
// scrape time. The counters are plain atomics inside internal/nn (the
// engine carries no observability dependency); a nil Observer is a no-op.
func RegisterEngineMetrics(o *Observer) {
	reg := o.Reg()
	reg.CounterFunc(MetricNNGEMMCalls,
		"Fused GEMM kernel invocations by the nn inference engine.",
		func() float64 { return float64(nn.Counters().GEMMCalls) })
	reg.CounterFunc(MetricNNGEMMRows,
		"Rows pushed through fused GEMM kernels.",
		func() float64 { return float64(nn.Counters().GEMMRows) })
	reg.CounterFunc(MetricNNAttnSegments,
		"Attention segments processed by the TLP transformer path.",
		func() float64 { return float64(nn.Counters().AttnSegments) })
}

// NewPool builds a worker pool with the given budget; workers <= 0 selects
// runtime.NumCPU(). Pass it via Config.Pool to size a session, or to cap
// total concurrency across concurrent sessions that share it.
func NewPool(workers int) *Pool { return parallel.New(workers) }

// NewFleet builds a measurement fleet over pruner-measure worker base
// URLs, with default wire settings; pass it via Config.Measurer. Results
// are bitwise identical to in-process simulated measurement for the same
// seed (the session draws measurement noise itself at commit time).
func NewFleet(urls []string) *Fleet { return measure.NewFleet(urls, measure.FleetOptions{}) }

// NewObservedFleet is NewFleet with live per-worker dispatch counters and
// batch-latency histograms landing on o's registry (pruner_fleet_*). Hand
// successive fleets a daemon's long-lived Observer and per-worker totals
// accumulate across jobs, scrapeable mid-session. nil o builds an
// unobserved fleet.
func NewObservedFleet(urls []string, o *Observer) *Fleet {
	return measure.NewFleet(urls, measure.FleetOptions{Metrics: o.Reg()})
}

// NewMeasureWorker builds a measurement worker executing batches on a
// pool-bounded fan-out (workers <= 0 selects runtime.NumCPU()).
func NewMeasureWorker(workers int) *MeasureWorker {
	return measure.NewWorker(measure.WorkerOptions{Pool: parallel.New(workers)})
}

// NewObservedMeasureWorker is NewMeasureWorker with the worker's counters
// exposed on o's registry (pruner_worker_*) and GET /metrics mounted on
// its Handler. nil o builds an unobserved worker.
func NewObservedMeasureWorker(workers int, o *Observer) *MeasureWorker {
	return measure.NewWorker(measure.WorkerOptions{Pool: parallel.New(workers), Metrics: o.Reg()})
}

// Preset devices of the paper's evaluation.
var (
	A100   = device.A100
	TitanV = device.TitanV
	Orin   = device.Orin
	K80    = device.K80
	T4     = device.T4
)

// DeviceByName resolves a preset device ("a100", "titanv", "orin", "k80",
// "t4").
func DeviceByName(name string) (*Device, error) { return device.ByName(name) }

// LoadNetwork builds a workload from the model zoo (see NetworkNames).
func LoadNetwork(name string) (*Network, error) { return workloads.ByName(name) }

// NetworkNames lists the available workloads.
func NetworkNames() []string { return workloads.Names() }

// Method selects a tuning approach by name: "pruner", "moa-pruner",
// "ansor", "tensetmlp", "tlp", "pruner-offline", "metaschedule" or
// "roller". tuner.Define defines each one.
type Method = tuner.Method

// Supported tuning methods.
const (
	// MethodPruner is the paper's Draft-then-Verify mechanism with PaCM
	// trained online.
	MethodPruner = tuner.MethodPruner
	// MethodMoAPruner adds Momentum online Adaptation from pretrained
	// cross-platform weights (requires Config.Pretrained).
	MethodMoAPruner = tuner.MethodMoAPruner
	// MethodAnsor is evolutionary search with an online statement-feature
	// MLP over all explored candidates.
	MethodAnsor = tuner.MethodAnsor
	// MethodTenSetMLP is Ansor-style search guided by an offline
	// pretrained MLP (requires Config.Pretrained).
	MethodTenSetMLP = tuner.MethodTenSetMLP
	// MethodTLP is Ansor-style search guided by the offline TLP
	// transformer (requires Config.Pretrained).
	MethodTLP = tuner.MethodTLP
	// MethodPrunerOffline drafts with LSE and verifies with an offline
	// pretrained PaCM (requires Config.Pretrained).
	MethodPrunerOffline = tuner.MethodPrunerOffline
	// MethodMetaSchedule is the TensorCore-capable evolutionary baseline.
	MethodMetaSchedule = tuner.MethodMetaSchedule
	// MethodRoller is the rule-based aligned-tile baseline.
	MethodRoller = tuner.MethodRoller
)

// Pretrained carries cost-model weights from offline pretraining, keyed to
// the model architecture that produced them.
type Pretrained struct {
	Kind    string // "pacm", "tensetmlp", "tlp"
	Weights []*nn.Tensor
}

// PretrainedKind is the model kind a method's Config.Pretrained must
// carry, or "" for a method that takes no pretrained weights.
func PretrainedKind(m Method) string {
	if d, ok := tuner.Define(m); ok && d.Adapt != tuner.AdaptNone {
		return d.Kind
	}
	return ""
}

// CheckMethod reports whether Tune can run method m with the bundle p: m
// must be a Method, and a method that adapts pretrained weights needs p
// of its model's kind (the other methods ignore p). The tuning daemon
// calls it at submit time with the bundle it loaded.
func CheckMethod(m Method, p *Pretrained) error {
	d, ok := tuner.Define(m)
	switch {
	case !ok:
		return fmt.Errorf("pruner: unknown method %q", m)
	case d.Adapt == tuner.AdaptNone:
		return nil
	case p == nil:
		return fmt.Errorf("pruner: method %q needs %q pretrained weights (Config.Pretrained)", m, d.Kind)
	case p.Kind != d.Kind:
		return fmt.Errorf("pruner: method %q needs %q weights, got %q", m, d.Kind, p.Kind)
	}
	return nil
}

// SaveModel writes a pretrained weight bundle (kind + parameters) to w,
// in the format LoadModel reads. Together with the -model-out/-model-in
// CLI flags this lets one process pretrain and every later process —
// tuner runs, the serving daemon, examples — reuse the weights instead
// of re-pretraining.
func SaveModel(w io.Writer, p *Pretrained) error {
	if p == nil || len(p.Weights) == 0 {
		return fmt.Errorf("pruner: SaveModel needs a non-empty Pretrained")
	}
	if _, err := newModelKind(p.Kind, 0); err != nil {
		return err
	}
	// One encoder for the whole bundle: a gob decoder reads ahead of what
	// it decodes, so the kind header and the parameter blob must share a
	// stream rather than stack independent encoders.
	enc := gob.NewEncoder(w)
	if err := enc.Encode(p.Kind); err != nil {
		return fmt.Errorf("pruner: writing model kind: %w", err)
	}
	return nn.EncodeParams(enc, p.Weights)
}

// LoadModel reads a weight bundle written by SaveModel, validating the
// parameters against a freshly built model of the recorded kind.
func LoadModel(r io.Reader) (*Pretrained, error) {
	dec := gob.NewDecoder(r)
	var kind string
	if err := dec.Decode(&kind); err != nil {
		return nil, fmt.Errorf("pruner: reading model kind: %w", err)
	}
	m, err := newModelKind(kind, 0)
	if err != nil {
		return nil, err
	}
	if err := nn.DecodeParams(dec, m.Params()); err != nil {
		return nil, fmt.Errorf("pruner: loading %q weights: %w", kind, err)
	}
	return &Pretrained{Kind: kind, Weights: tuner.SnapshotParams(m)}, nil
}

// newModelKind builds a fresh learned cost model of the named kind.
func newModelKind(kind string, seed int64) (costmodel.Model, error) {
	if m, ok := costmodel.New(kind, seed); ok {
		return m, nil
	}
	return nil, fmt.Errorf("pruner: unknown model kind %q", kind)
}

// Config tunes a session.
type Config struct {
	Method Method
	// Trials is the measurement budget (0 selects 2,000; negative is an
	// error).
	Trials int
	// BatchSize is measurements per round (0 selects 10; negative is an
	// error).
	BatchSize int
	// Seed fixes all randomness.
	Seed int64
	// Pretrained supplies offline weights for the methods that need them.
	Pretrained *Pretrained
	// TensorCore enables wmma schedules on FP16 workloads.
	TensorCore bool
	// MaxTasks optionally tunes only the top-N subgraphs by FLOPs share
	// (scaled experiments); 0 tunes all.
	MaxTasks int
	// Pool is the session's worker budget for drafting, cost-model
	// inference and simulated measurement; nil is the process pool of
	// runtime.NumCPU() workers, NewPool(1) runs serially. The same Seed
	// gives a bitwise-identical Result at any pool size. Sessions sharing
	// one Pool (the daemon's jobs, the CLIs' sessions) share its budget.
	Pool *Pool
	// Measurer selects the measurement backend; nil runs the in-process
	// simulator adapter. A NewFleet measurer distributes batches over
	// remote pruner-measure workers with bitwise-identical results.
	Measurer Measurer
	// PipelineDepth bounds in-flight measurement rounds. 1 (default) is
	// the serial loop; higher depths overlap measurement with the next
	// round's search and the online fit, still bitwise reproducible for a
	// fixed depth at any pool size. Ignored when AdaptBudget is set
	// (the controller then owns the depth).
	PipelineDepth int
	// AdaptBudget enables calibration-driven budget control: the session
	// tracks the cost model's predicted-vs-measured rank error per task
	// and deterministically shrinks the verify/measure batch, widens
	// the LSE draft set and deepens the pipeline where the model has
	// earned trust — measuring fewer candidates for the same Trials
	// budget on well-modeled tasks. Off (the default), sessions are
	// bitwise identical to fixed-budget tuning. See DESIGN.md §8.
	AdaptBudget bool
	// Ctx cancels the session between measurement rounds; the partial
	// Result (Interrupted set) is still valid. nil never cancels.
	Ctx context.Context
	// Progress, when non-nil, receives one event per measurement round,
	// serially and in order (the daemon's SSE feed). A round that trains
	// the cost model fires once its online fit has joined, which is
	// usually during the next round's draft.
	Progress func(ProgressEvent)
	// WarmStart seeds the session with prior records (a -resume log or
	// store history): they enter each task's measured set and best, and
	// prime the first cost-model fit, without charging trials or
	// measurement time (the priming fit charges training time like any
	// online update). Identical warm-start slices with the same Seed
	// keep the session bitwise reproducible at any pool size.
	WarmStart []Record
	// Obs, when non-nil, arms the session with metrics and span tracing
	// (per-stage latencies, cost-model fit/predict spans). Clock readings
	// flow into the observer only, never into tuning decisions: the same
	// Seed produces a bitwise-identical Result armed or not.
	Obs *Observer
}

// Tune runs a full tuning session of the network on the device.
func Tune(dev *Device, net *Network, cfg Config) (*Result, error) {
	if err := CheckMethod(cfg.Method, cfg.Pretrained); err != nil {
		return nil, err
	}
	// A negative budget makes the round count negative: the session would
	// end at once with nothing tuned instead of failing.
	if cfg.Trials < 0 || cfg.BatchSize < 0 {
		return nil, fmt.Errorf("pruner: negative budget (trials %d, batch size %d)", cfg.Trials, cfg.BatchSize)
	}
	d, _ := tuner.Define(cfg.Method)
	tasks := net.Representative(cfg.MaxTasks)
	opt := d.Options(cfg.Seed)
	opt.Trials = cfg.Trials
	opt.BatchSize = cfg.BatchSize
	opt.TensorCore = cfg.TensorCore
	opt.Pool = cfg.Pool
	opt.Measurer = cfg.Measurer
	opt.PipelineDepth = cfg.PipelineDepth
	opt.AdaptBudget = cfg.AdaptBudget
	opt.Ctx = cfg.Ctx
	opt.Progress = cfg.Progress
	opt.WarmStart = cfg.WarmStart
	opt.Obs = cfg.Obs
	if d.Adapt != tuner.AdaptNone {
		opt.Pretrained = cfg.Pretrained.Weights
	}
	// Roller's default budget is 50 measurements per task.
	if cfg.Method == MethodRoller && cfg.Trials == 0 {
		opt.Trials = 50 * len(tasks)
	}
	return tuner.Tune(dev, tasks, opt), nil
}

// GenerateDataset builds a TenSet-style dataset for the named networks on
// a device.
func GenerateDataset(ctx context.Context, dev *Device, networks []string, schedulesPerTask int, seed int64) (*Dataset, error) {
	tasks, err := dataset.NetworksTasks(networks)
	if err != nil {
		return nil, err
	}
	return dataset.Generate(ctx, dev, tasks, dataset.GenOptions{
		SchedulesPerTask: schedulesPerTask,
		Seed:             seed,
	}), nil
}

// PretrainModel trains a fresh cost model of the given kind ("pacm",
// "tensetmlp", "tlp") on a dataset and returns both the live model and a
// weight snapshot usable as Config.Pretrained.
func PretrainModel(kind string, ds *Dataset, epochs int, seed int64) (Model, *Pretrained, error) {
	m, err := newModelKind(kind, seed)
	if err != nil {
		return nil, nil, err
	}
	m.Fit(ds.Records(), costmodel.FitOptions{Epochs: epochs, Seed: seed})
	return m, &Pretrained{Kind: kind, Weights: tuner.SnapshotParams(m)}, nil
}

// EvaluateTopK computes the paper's Top-k metric (Eq. 2) of a cost model
// over a dataset: the ratio of the weighted-optimal latency to the
// weighted best latency found within each task's k highest-scored
// programs.
func EvaluateTopK(m Model, ds *Dataset, k int) float64 {
	return ds.TopK(k, func(s *dataset.TaskSet) []float64 {
		schs := make([]*schedule.Schedule, len(s.Entries))
		for i := range s.Entries {
			schs[i] = s.Entries[i].Sched
		}
		return m.Predict(s.Task, schs)
	})
}

// FrameworkLatency estimates a network's inference latency under an
// off-the-shelf framework ("pytorch", "triton", "tensorrt", "cudalib").
func FrameworkLatency(framework string, dev *Device, net *Network) (float64, error) {
	fw, err := frameworkByName(framework)
	if err != nil {
		return 0, err
	}
	return vendorlib.NetworkLatency(fw, dev, net), nil
}

// frameworkByName maps user-facing names to vendorlib frameworks.
func frameworkByName(name string) (vendorlib.Framework, error) {
	switch name {
	case "pytorch":
		return vendorlib.PyTorch, nil
	case "triton":
		return vendorlib.Triton, nil
	case "tensorrt":
		return vendorlib.TensorRT, nil
	case "cudalib":
		return vendorlib.CudaLib, nil
	default:
		return 0, fmt.Errorf("pruner: unknown framework %q", name)
	}
}

// SimulatedClock summarises where a session's compilation time went.
type SimulatedClock = simulator.Clock
