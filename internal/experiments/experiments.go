// Package experiments reproduces every table and figure of the paper's
// evaluation (§6). Each experiment is a named runner printing the paper's
// rows/series; DESIGN.md §13 maps experiment IDs to modules and bench
// targets, EXPERIMENTS.md records paper-vs-measured values.
//
// Runners execute in one of two scales: the default "scaled" mode keeps
// the paper's structure (same methods, same comparisons) with reduced
// trial counts, populations and dataset sizes so the whole suite finishes
// on a laptop; "full" mode uses the paper's parameters (2,000 trials,
// S_spec = 512, 8,000 model evaluations per round).
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"pruner/internal/analyzer"
	"pruner/internal/costmodel"
	"pruner/internal/dataset"
	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/measure"
	"pruner/internal/nn"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
	"pruner/internal/search"
	"pruner/internal/simulator"
	"pruner/internal/tuner"
	"pruner/internal/workloads"
)

// Config selects scale and output of a run.
type Config struct {
	Full bool
	Seed int64
	Out  io.Writer
	// Ctx cancels the run: it flows into every tuning session and dataset
	// generation. Nil means run to completion (context.Background()).
	Ctx context.Context
	// CacheDir stores pretrained cost-model weights between runs
	// (default ".cache").
	CacheDir string
	// Pool bounds the experiment's total concurrency (nil: the process
	// pool of runtime.NumCPU() workers). It serves the session fan-out,
	// every session's scoring/measurement, dataset generation and
	// pretraining, so the bound holds across layers and experiments
	// sharing it.
	// Sessions are seeded independently: rows are identical at any size.
	Pool *parallel.Pool
}

func (c Config) withDefaults() Config {
	if c.Out == nil {
		c.Out = os.Stdout
	}
	if c.CacheDir == "" {
		c.CacheDir = ".cache"
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Ctx == nil {
		// Documented nil-Ctx default: experiment runs from the CLI own the
		// process; cancellation arrives as a signal, not a context.
		c.Ctx = context.Background() //pruner:allow ctxflow — documented nil-Ctx fallback at the run boundary; callers wanting cancellation set Config.Ctx
	}
	return c
}

// Runner executes one experiment.
type Runner func(cfg Config) error

// An Experiment is one table or figure of the evaluation.
type Experiment struct {
	ID  string
	Run Runner
}

// All lists every experiment (DESIGN.md §13) in evaluation order.
var All = []Experiment{
	{"table1", Table1}, {"fig6", Fig6}, {"fig7", Fig7}, {"table5", Table5},
	{"fig8", Fig8}, {"table6", Table6}, {"fig9", Fig9}, {"fig10", Fig10},
	{"fig11", Fig11}, {"table7", Table7}, {"fig12", Fig12}, {"table8", Table8},
	{"table9", Table9}, {"fig13", Fig13}, {"fig14", Fig14}, {"table10", Table10},
	{"fig15", Fig15}, {"table11", Table11}, {"table12", Table12},
	{"table13", Table13}, {"fig16", Fig16},
	// Beyond the paper: fixed vs adaptive budget control at equal trials
	// (ROADMAP "Adaptive verify budget"; DESIGN.md §8).
	{"adaptive", Adaptive},
}

// Lookup returns the runner of an experiment ID.
func Lookup(id string) (Runner, bool) {
	for _, e := range All {
		if e.ID == id {
			return e.Run, true
		}
	}
	return nil, false
}

// scale bundles all size parameters of a run.
type scale struct {
	tag             string
	trials          int // measurement trials per network session
	opTrials        int // trials for single-operator sessions
	maxTasks        int // representative tasks per network (0 = all)
	evoPop, evoGens int // Ansor/MetaSchedule evolutionary budget
	specSize        int // LSE S_spec
	randomDraft     int
	datasetPerTask  int // synthetic TenSet schedules per subgraph
	pretrainEpochs  int
	onlineEpochs    int
	rollerPerTask   int
	bestKRepeats    int // random-GA repeats in Fig 14
}

func scaleOf(full bool) scale {
	if full {
		return scale{
			tag: "full", trials: 2000, opTrials: 800, maxTasks: 0,
			evoPop: 2000, evoGens: 4, specSize: 512, randomDraft: 128,
			datasetPerTask: 2000, pretrainEpochs: 25, onlineEpochs: 8,
			rollerPerTask: 50, bestKRepeats: 20,
		}
	}
	return scale{
		tag: "scaled", trials: 120, opTrials: 60, maxTasks: 4,
		evoPop: 320, evoGens: 3, specSize: 128, randomDraft: 40,
		datasetPerTask: 150, pretrainEpochs: 8, onlineEpochs: 4,
		rollerPerTask: 30, bestKRepeats: 6,
	}
}

// harness carries a run's configuration and the suite worker pool used
// to fan independent tuning sessions out.
type harness struct {
	cfg  Config
	ctx  context.Context // == cfg.Ctx; a receiver-level field so every harness method can forward it
	sc   scale
	pool *parallel.Pool
	// adaptBudget sets tuner.Options.AdaptBudget on every session (the
	// "adaptive" experiment's second arm).
	adaptBudget bool
}

func newHarness(cfg Config) *harness {
	cfg = cfg.withDefaults()
	return &harness{cfg: cfg, ctx: cfg.Ctx, sc: scaleOf(cfg.Full), pool: cfg.Pool}
}

func (h *harness) printf(format string, args ...any) {
	fmt.Fprintf(h.cfg.Out, format, args...)
}

// ---------------------------------------------------------------------------
// Shared artifacts: offline datasets and pretrained weights.

// pretrainTasks picks the offline-dataset subgraphs: the dominant tasks of
// a diverse slice of the training networks.
func (h *harness) pretrainTasks() []*ir.Task {
	names := dataset.TrainNetworks
	if !h.cfg.Full {
		names = []string{"wide_resnet50", "inception_v3", "vit", "gpt2", "dcgan", "deeplab_v3"}
	}
	seen := map[string]*ir.Task{}
	var out []*ir.Task
	perNet := 5
	if h.cfg.Full {
		perNet = 0
	}
	for _, name := range names {
		net, err := workloads.ByName(name)
		if err != nil {
			panic(err)
		}
		for _, t := range net.Representative(perNet) {
			if prev, ok := seen[t.ID]; ok {
				prev.Weight += t.Weight
				continue
			}
			seen[t.ID] = t
			out = append(out, t)
		}
	}
	return out
}

// artifactKey is the key of the artifact name under the harness's seed:
// what buildOnce and the weights cache know it by, so two seeds in one
// process, or over one cache directory, never share an artifact.
func (h *harness) artifactKey(name string) string {
	return fmt.Sprintf("%s-seed%d", name, h.cfg.Seed)
}

// offlineDataset returns the synthetic TenSet slice for one device,
// built once per process and seed; the generation parallelizes on
// h.pool. Its generation seed is derived from the name without the seed.
func (h *harness) offlineDataset(dev *device.Device) *dataset.Dataset {
	name := fmt.Sprintf("ds-%s-%s", dev.Name, h.sc.tag)
	return buildOnce(h.ctx, h.artifactKey(name), func() *dataset.Dataset {
		return dataset.Generate(h.ctx, dev, h.pretrainTasks(), dataset.GenOptions{
			SchedulesPerTask: h.sc.datasetPerTask,
			Seed:             h.cfg.Seed + int64(len(name)),
			Pool:             h.pool,
		})
	})
}

// pretrainedKey is the artifact key of (kind, device)'s pretrained
// weights, and their cache file's name without the extension.
func (h *harness) pretrainedKey(kind string, dev *device.Device) string {
	return h.artifactKey(fmt.Sprintf("pre-%s-%s-%s", kind, dev.Name, h.sc.tag))
}

// pretrained returns cross-platform weights for (kind, device), built
// once per process and seed: loaded from CacheDir, or trained on the
// offline dataset and persisted there.
func (h *harness) pretrained(kind string, dev *device.Device) []*nn.Tensor {
	key := h.pretrainedKey(kind, dev)
	return buildOnce(h.ctx, key, func() []*nn.Tensor {
		m, _ := costmodel.New(kind, h.cfg.Seed+77)
		path := filepath.Join(h.cfg.CacheDir, key+".gob")
		if f, err := os.Open(path); err == nil {
			err = nn.LoadParams(f, m.Params())
			_ = f.Close() // read-side close of a best-effort cache
			if err == nil {
				return tuner.SnapshotParams(m)
			}
		}
		ds := h.offlineDataset(dev)
		if pu, ok := m.(costmodel.PoolUser); ok {
			// Offline pretraining shards its task groups over the suite
			// pool; the fitted weights are identical at any worker count.
			pu.SetPool(h.pool)
		}
		m.Fit(ds.Records(), costmodel.FitOptions{Epochs: h.sc.pretrainEpochs, Seed: h.cfg.Seed})
		if h.ctx.Err() != nil {
			return tuner.SnapshotParams(m) // fitted on a partial dataset: never persist it
		}
		if err := os.MkdirAll(h.cfg.CacheDir, 0o755); err == nil {
			if f, err := os.Create(path); err == nil {
				_ = nn.SaveParams(f, m.Params())
				_ = f.Close() // cache write is best-effort; a torn file fails LoadParams next run
			}
		}
		return tuner.SnapshotParams(m)
	})
}

// artifacts holds what the harness builds once per process and every
// experiment shares — offline datasets, test splits and pretrained
// weights — keyed by name, scale tag and seed (artifactKey).
var (
	artifactsMu sync.Mutex
	artifacts   = map[string]*artifact{}
)

// artifact is one key's build; done closes when it ends, and val is kept
// only if ok.
type artifact struct {
	done chan struct{}
	val  any
	ok   bool
}

// buildOnce returns key's artifact, building it on first use. The first
// caller of a key runs build with no lock held; concurrent callers of the
// key wait for that build, and other keys build in parallel. A build that
// ends with ctx cancelled is not kept: its caller gets what it built, and
// the waiters and the next caller build it again, as after a build that
// panicked.
func buildOnce[T any](ctx context.Context, key string, build func() T) T {
	for {
		artifactsMu.Lock()
		a := artifacts[key]
		if a == nil {
			a = &artifact{done: make(chan struct{})}
			artifacts[key] = a
			artifactsMu.Unlock()
			return runBuild(ctx, key, a, build)
		}
		artifactsMu.Unlock()
		<-a.done
		if a.ok {
			return a.val.(T)
		}
	}
}

// runBuild runs key's build into a and publishes it, or drops the key if
// the build was cut short.
func runBuild[T any](ctx context.Context, key string, a *artifact, build func() T) T {
	defer func() {
		if !a.ok {
			artifactsMu.Lock()
			delete(artifacts, key)
			artifactsMu.Unlock()
		}
		close(a.done)
	}()
	v := build()
	a.val, a.ok = v, ctx.Err() == nil
	return v
}

// ---------------------------------------------------------------------------
// Tuning methods.

// A method is what one session of an experiment runs: a product method
// (tuner.Define) sized to the run's scale, plus at most one named
// deviation from it. name is what the experiments print.
type method struct {
	name string
	def  tuner.Method
	// policy, when set, drafts with that product method's policy in place
	// of def's (the "w/o LSE" ablations).
	policy tuner.Method
	// deviate makes the method's one change to the sized session.
	deviate func(o *tuner.Options, dev *device.Device)
}

// The product's methods as the experiments run them, then the named
// deviations of the comparison and ablation rows.
var (
	mAnsor         = method{name: "ansor", def: tuner.MethodAnsor}
	mPruner        = method{name: "pruner", def: tuner.MethodPruner} // the paper's "Pruner" / "w/o MoA"
	mMoA           = method{name: "moa-pruner", def: tuner.MethodMoAPruner}
	mTenSetMLP     = method{name: "tensetmlp", def: tuner.MethodTenSetMLP}
	mTLP           = method{name: "tlp", def: tuner.MethodTLP}
	mPrunerOffline = method{name: "pruner-offline", def: tuner.MethodPrunerOffline}
	mRoller        = method{name: "roller", def: tuner.MethodRoller}

	// Tables 12/13 "w/o LSE": PaCM verifies all Ansor's evolution explores.
	mNoLSE        = method{name: "pruner-no-lse", def: tuner.MethodPruner, policy: tuner.MethodAnsor}
	mOfflineNoLSE = method{name: "pruner-offline-no-lse", def: tuner.MethodPrunerOffline, policy: tuner.MethodAnsor}
	// Table 12 "w/o S.F." and "w/o T.D.F.": PaCM without one feature branch.
	mNoSF  = method{"pruner-no-sf", tuner.MethodPruner, "", ablatedPaCM(false, true)}
	mNoTDF = method{"pruner-no-tdf", tuner.MethodPruner, "", ablatedPaCM(true, false)}
	// Table 12 "w/ O-F": plain online fine-tuning in place of MoA.
	mOF = method{"pruner-of", tuner.MethodMoAPruner, "", func(o *tuner.Options, _ *device.Device) {
		o.Adaptation = tuner.AdaptFineTune
	}}
	// TLM: language-model-assisted, offline-pretrained guidance kept
	// training online.
	mTLM = method{"tlm", tuner.MethodTenSetMLP, "", func(o *tuner.Options, _ *device.Device) { o.OnlineTrain = true }}
	// The TensorCore rows of §6.4.
	mMetaSchedule = method{"metaschedule", tuner.MethodMetaSchedule, "", tensorCore}
	mPrunerTC     = method{"pruner-tc", tuner.MethodPruner, "", tensorCore}
	// Adatune: early-terminated measurements, cheaper but noisier.
	mAdatune = method{"adatune", tuner.MethodAnsor, "", func(o *tuner.Options, dev *device.Device) {
		o.Trials = o.Trials * 85 / 100
		o.Measurer = measure.NewSim(simulator.NewWithConfig(dev, simulator.Config{MeasureNoise: 0.09}))
	}}
	// Felix: gradient-descent-style local search, a third of Ansor's
	// population under mutation alone.
	mFelix = method{"felix", tuner.MethodAnsor, "", func(o *tuner.Options, _ *device.Device) {
		p := o.Policy.(*search.EvoPolicy)
		p.Evo.Population /= 3
		p.Evo.MutateProb, p.Evo.CrossProb, p.Eps = 1, 0, 0
	}}
)

func ablatedPaCM(useStatement, useDataflow bool) func(*tuner.Options, *device.Device) {
	return func(o *tuner.Options, _ *device.Device) {
		o.Model = costmodel.NewPaCMAblated(o.Seed+1, useStatement, useDataflow)
	}
}

func tensorCore(o *tuner.Options, _ *device.Device) { o.TensorCore = true }

// tune runs one tuning session of method m over tasks.
func (h *harness) tune(dev *device.Device, tasks []*ir.Task, m method, seed int64) *tuner.Result {
	sc := h.sc
	d, _ := tuner.Define(m.def) // every method names a product method
	if m.policy != "" {
		p, _ := tuner.Define(m.policy)
		d.Policy = p.Policy
	}
	opt := d.Options(seed)
	opt.Ctx, opt.Pool, opt.Trials, opt.AdaptBudget = h.ctx, h.pool, sc.trials, h.adaptBudget
	opt.Fit = costmodel.FitOptions{Epochs: sc.onlineEpochs, Seed: seed}
	if d.Adapt == tuner.AdaptMoA {
		opt.Pretrained = h.pretrained(d.Kind, device.K80) // MoA adapts across platforms
	} else if d.Adapt != tuner.AdaptNone {
		opt.Pretrained = h.pretrained(d.Kind, dev)
	}
	// Size the policy to the run. Scaled runs shrink per-round candidate
	// budgets, so they charge the simulated exploration clock at
	// paper-scale rates (xf) and timing comparisons (curves, Tables
	// 1/5/7, Figure 7) stay meaningful. Both evolutionary baselines evolve
	// with Ansor's operators; the product's MetaSchedule mutates at 0.80.
	evo := search.EvoParams{Population: sc.evoPop, Generations: sc.evoGens, MutateProb: 0.85, CrossProb: 0.05}
	xf := 8000.0 / float64(sc.evoPop*sc.evoGens)
	switch p := opt.Policy.(type) {
	case *search.PrunerPolicy:
		p.LSE.SpecSize, p.LSE.Population, p.LSE.Steps = sc.specSize, sc.evoPop, sc.evoGens
		p.RandomDraft, p.ExploitDraft = sc.randomDraft, sc.randomDraft
		xf = 512.0 / float64(sc.specSize)
	case *search.EvoPolicy:
		p.Evo = evo
	case *search.RollerPolicy:
		p.CandidatePool = 2000
		opt.Trials = sc.rollerPerTask * len(tasks)
		xf = 1
	}
	if !h.cfg.Full {
		cost := simulator.DefaultCostParams(dev)
		cost.FeatureExtract *= xf
		cost.ModelInfer *= xf
		cost.DraftEval *= xf
		opt.Cost = cost
	}
	if m.deviate != nil {
		m.deviate(&opt, dev)
	}
	return tuner.Tune(dev, tasks, opt)
}

// session is one independent tuning job of a suite-level fan-out.
type session struct {
	dev    *device.Device
	tasks  []*ir.Task
	method method
	seed   int64
}

// tuneAll runs independent sessions concurrently on the suite pool and
// returns results in input order, so callers print rows deterministically
// no matter how the sessions interleave. Each session is self-seeded; the
// only state they share is the harness's artifacts (buildOnce), each
// built once whichever session asks first.
func (h *harness) tuneAll(ss []session) []*tuner.Result {
	return parallel.Map(h.pool, len(ss), func(i int) *tuner.Result {
		return h.tune(ss[i].dev, ss[i].tasks, ss[i].method, ss[i].seed)
	})
}

// tasksOf selects the session's tasks for a network at the current scale.
func (h *harness) tasksOf(net *workloads.Network) []*ir.Task {
	return net.Representative(h.sc.maxTasks)
}

// mustNet fetches a workload or panics (experiment definitions are static).
func mustNet(name string) *workloads.Network {
	n, err := workloads.ByName(name)
	if err != nil {
		panic(err)
	}
	return n
}

// fullTrialFactor extrapolates simulated clocks from scaled trials to the
// paper's 2,000-trial sessions for minute-scale tables.
func (h *harness) fullTrialFactor() float64 {
	if h.cfg.Full {
		return 1
	}
	return 2000 / float64(h.sc.trials)
}

// minutes formats simulated seconds as minutes.
func minutes(s float64) float64 { return s / 60 }

// geomean of positive values (zeros skipped).
func geomean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x > 0 && !math.IsInf(x, 0) {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// saBest evaluates the draft analyzer's score for all entries of a task
// set (used by the Best-k experiments).
func saBest(a *analyzer.Analyzer, s *dataset.TaskSet) []float64 {
	out := make([]float64, len(s.Entries))
	for i, e := range s.Entries {
		out[i] = a.Score(schedule.Lower(s.Task, e.Sched))
	}
	return out
}

// entrySchedules extracts the schedule list of a task set.
func entrySchedules(s *dataset.TaskSet) []*schedule.Schedule {
	out := make([]*schedule.Schedule, len(s.Entries))
	for i := range s.Entries {
		out[i] = s.Entries[i].Sched
	}
	return out
}

// predictSet scores every entry of a task set with a model.
func predictSet(m costmodel.Model, s *dataset.TaskSet) []float64 {
	return m.Predict(s.Task, entrySchedules(s))
}
