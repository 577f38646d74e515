package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"pruner"
	"pruner/internal/costmodel"
	"pruner/internal/ir"
	"pruner/internal/measure"
	"pruner/internal/obs"
	"pruner/internal/search"
	"pruner/internal/simulator"
	"pruner/internal/tuner"
)

// opResult is one operation set of a workload: one tuning session, or
// one serve_fleet cycle (two jobs and the store-hit requests between).
type opResult struct {
	wall     float64 // seconds, timed part only
	normWall float64 // wall in reference-machine seconds (set by workload.run)
	trials   int     // measurements committed
	ops      int     // operations attempted
	failed   int     // operations that failed a check
	failures []string
	simTotal float64 // simulated compile seconds (Result.Clock.Total)
	finalMS  float64 // tuned workload latency
	// fingerprint digests every observable bit of the results; the traced
	// and untraced run of one seed must agree on it.
	fingerprint string
	// jobs are the committed rounds of each tuning job of the operation
	// as its progress feed saw them: one traced session, or serve_fleet's
	// J1 and J3 via SSE. The to-target metrics read the first.
	jobs [][]roundSample
	// layer holds per-operation layer observations (decorator counts,
	// HTTP timings) that the traced run averages; spans are a traced
	// operation's spans.
	layer map[string][]float64
	spans []obs.Span
}

// roundSample is one committed round: wall-clock seconds since the job
// started, the simulated clock, the workload latency (ms, +Inf
// until every task has a valid measurement) and the pipeline occupancy.
type roundSample struct {
	wall     float64
	sim      float64
	latMS    float64
	inFlight int
	improved bool
}

func (r *opResult) observe(name string, v float64) {
	if r.layer == nil {
		r.layer = map[string][]float64{}
	}
	r.layer[name] = append(r.layer[name], v)
}

func (r *opResult) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// sessionRunner runs the three in-process session workloads.
type sessionRunner struct {
	w          workload
	dev        *pruner.Device
	net        *pruner.Network
	tasks      []*ir.Task
	pretrained *pruner.Pretrained
	// offline is what set-up's offline stage cost (moa_orin only), kept
	// for the traced run's dataset.* and costmodel.pretrain_s.
	offline *offlineStage
}

type offlineStage struct{ generateS, programs, pretrainS float64 }

func newSessionRunner(w workload) (*sessionRunner, error) {
	dev, err := pruner.DeviceByName(w.device)
	if err != nil {
		return nil, err
	}
	net, err := pruner.LoadNetwork(w.network)
	if err != nil {
		return nil, err
	}
	s := &sessionRunner{w: w, dev: dev, net: net, tasks: net.Representative(w.maxTasks)}
	if p := w.pretrain; p != nil {
		src, err := pruner.DeviceByName(p.device)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		ds, err := pruner.GenerateDataset(context.Background(), src, p.networks, p.perTask, pretrainSeed)
		if err != nil {
			return nil, err
		}
		s.offline = &offlineStage{generateS: time.Since(t0).Seconds(), programs: float64(ds.Size())}
		t0 = time.Now()
		if _, s.pretrained, err = pruner.PretrainModel("pacm", ds, p.epochs, pretrainSeed); err != nil {
			return nil, err
		}
		s.offline.pretrainS = time.Since(t0).Seconds()
	}
	// One reduced-scale session fills the lazily built state every later
	// session reuses (inference arenas, trainer replicas, heap) so the
	// first timed session is not a cold one.
	warm := w
	warm.trials = warmupTrials
	if _, err := pruner.Tune(dev, net, s.config(warm, 0)); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *sessionRunner) subject() (*pruner.Device, *ir.Task) { return s.dev, s.tasks[0] }

func (s *sessionRunner) config(w workload, seed int64) pruner.Config {
	return pruner.Config{
		Method:        w.method,
		Trials:        w.trials,
		Seed:          seed,
		MaxTasks:      w.maxTasks,
		PipelineDepth: w.depth,
		Pretrained:    s.pretrained,
	}
}

// options mirrors pruner.Tune's method table for the methods the
// workloads use, so a traced session can be assembled through tuner.Tune
// with decorated parts. The fingerprint check in workload.run is what
// keeps this copy honest.
func (s *sessionRunner) options(seed int64) (tuner.Options, error) {
	opt := tuner.Options{Trials: s.w.trials, Seed: seed, PipelineDepth: s.w.depth, OnlineTrain: true}
	switch s.w.method {
	case pruner.MethodPruner:
		opt.Policy = search.NewPrunerPolicy()
		opt.Model = costmodel.NewPaCM(seed + 1)
	case pruner.MethodAnsor:
		opt.Policy = search.NewAnsorPolicy()
		opt.Model = costmodel.NewTenSetMLP(seed + 1)
	case pruner.MethodMoAPruner:
		opt.Policy = search.NewPrunerPolicy()
		opt.Model = costmodel.NewPaCM(seed + 1)
		opt.Adaptation = tuner.AdaptMoA
		opt.Pretrained = s.pretrained.Weights
	default:
		return opt, fmt.Errorf("no traced assembly for method %q", s.w.method)
	}
	return opt, nil
}

func (s *sessionRunner) op(seed int64, tr *tracer) (*opResult, error) {
	var res *tuner.Result
	out := &opResult{ops: 1, jobs: make([][]roundSample, 1)}
	start := time.Now()
	if tr == nil {
		var err error
		if res, err = pruner.Tune(s.dev, s.net, s.config(s.w, seed)); err != nil {
			return nil, err
		}
	} else {
		opt, err := s.options(seed)
		if err != nil {
			return nil, err
		}
		opt.Policy = tr.policy(opt.Policy)
		opt.Model = tr.model(opt.Model)
		opt.Measurer = tr.measurer(measure.NewSim(simulator.New(s.dev)))
		opt.Obs = tr.ob
		opt.Progress = progressRecorder(start, &out.jobs[0])
		res = tuner.Tune(s.dev, s.tasks, opt)
	}
	out.wall = time.Since(start).Seconds()
	if tr != nil {
		out.spans = tr.spans()
		tr.counts(out.observe)
	}
	out.trials = len(res.Records) - res.Warm
	out.simTotal = res.Clock.Total()
	out.finalMS = res.FinalLatency * 1e3
	out.fingerprint = resultFingerprint(res)
	checkSession(out, s.dev, s.tasks, res, s.w.trials)
	if len(out.failures) > 0 {
		out.failed = 1
	}
	return out, nil
}

// checkSession verifies a session's outputs independently of the tuner
// path that produced them.
func checkSession(out *opResult, dev *pruner.Device, tasks []*ir.Task, res *tuner.Result, trials int) {
	if res.MeasureErr != nil || res.Interrupted {
		out.fail("session stopped early (interrupted=%v, measure error: %v)", res.Interrupted, res.MeasureErr)
	}
	if got := len(res.Records) - res.Warm; got < trials {
		out.fail("committed %d of %d trials", got, trials)
	}
	// A fresh simulator, not the session's measurer: the recorded best is
	// one noisy draw around the true latency, so it must re-measure to
	// within 5 sigma of the measurement noise.
	sim := simulator.New(dev)
	var final float64
	for _, t := range tasks {
		b, ok := res.Best[t.ID]
		if !ok || b.Sched == nil {
			out.fail("task %s has no best schedule", t.ID)
			return
		}
		if err := b.Sched.Validate(t); err != nil {
			out.fail("task %s best schedule is invalid: %v", t.ID, err)
		}
		truth, err := sim.Latency(t, b.Sched)
		if err != nil {
			out.fail("task %s best schedule does not build: %v", t.ID, err)
		} else if dev := math.Abs(b.Latency/truth - 1); dev > 5*simulator.DefaultMeasureNoise {
			out.fail("task %s best latency %.6g s is %.1f%% off its re-measured %.6g s", t.ID, b.Latency, 100*dev, truth)
		}
		final += float64(t.Weight) * b.Latency
	}
	if math.Abs(final-res.FinalLatency) > 1e-12*final {
		out.fail("FinalLatency %.9g s differs from the weighted sum of bests %.9g s", res.FinalLatency, final)
	}
}

// resultFingerprint reduces a Result to a digest of every observable
// bit of session output (curve, record log, clock, bests) — the same
// coverage as the tuner's determinism tests.
func resultFingerprint(res *tuner.Result) string {
	h := fnv.New64a()
	bits := math.Float64bits
	fmt.Fprintf(h, "curve:%d;", len(res.Curve))
	for _, p := range res.Curve {
		fmt.Fprintf(h, "%d,%d,%x,%x;", p.Round, p.Trials, bits(p.SimSeconds), bits(p.WorkloadLat))
	}
	fmt.Fprintf(h, "records:%d;", len(res.Records))
	for _, r := range res.Records {
		fmt.Fprintf(h, "%s,%s,%x;", r.Task.ID, r.Sched.Fingerprint(), bits(r.Latency))
	}
	fmt.Fprintf(h, "clock:%x,%x,%x;", bits(res.Clock.Exploration), bits(res.Clock.Training), bits(res.Clock.Measurement))
	fmt.Fprintf(h, "final:%x;warm:%d;", bits(res.FinalLatency), res.Warm)
	ids := make([]string, 0, len(res.Best))
	for id := range res.Best {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		b := res.Best[id]
		fp := "<nil>"
		if b.Sched != nil {
			fp = b.Sched.Fingerprint()
		}
		fmt.Fprintf(h, "best:%s,%s,%x;", id, fp, bits(b.Latency))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
