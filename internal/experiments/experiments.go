// Package experiments reproduces every table and figure of the paper's
// evaluation (§6). Each experiment is a named runner printing the paper's
// rows/series; DESIGN.md §3 maps experiment IDs to modules and bench
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
	"sort"
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
	// Parallelism bounds the experiment's total concurrency; <= 0 selects
	// runtime.NumCPU(). One shared pool serves the suite-level session
	// fan-out, every session's internal scoring/measurement, and dataset
	// generation, so the bound holds across layers instead of
	// multiplying. Sessions are seeded independently, so reported rows
	// are identical at any setting.
	Parallelism int
	// AdaptBudget forwards tuner.Options.AdaptBudget to every tuning
	// session: calibration-driven verify/draft/depth control. The
	// "adaptive" experiment compares fixed vs adaptive explicitly and
	// ignores this field; setting it here adapts the whole suite.
	AdaptBudget bool
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

// Registry maps experiment IDs (DESIGN.md §3) to runners.
var Registry = map[string]Runner{
	"table1":  Table1,
	"fig6":    Fig6,
	"fig7":    Fig7,
	"table5":  Table5,
	"fig8":    Fig8,
	"table6":  Table6,
	"fig9":    Fig9,
	"fig10":   Fig10,
	"fig11":   Fig11,
	"table7":  Table7,
	"fig12":   Fig12,
	"table8":  Table8,
	"table9":  Table9,
	"fig13":   Fig13,
	"fig14":   Fig14,
	"table10": Table10,
	"fig15":   Fig15,
	"table11": Table11,
	"table12": Table12,
	"table13": Table13,
	"fig16":   Fig16,
	// Beyond the paper: fixed vs adaptive budget control at equal trials
	// (ROADMAP "Adaptive verify budget"; DESIGN.md §14).
	"adaptive": Adaptive,
}

// IDs lists experiment IDs in evaluation order.
func IDs() []string {
	ids := []string{
		"table1", "fig6", "fig7", "table5", "fig8", "table6", "fig9",
		"fig10", "fig11", "table7", "fig12", "table8", "table9", "fig13",
		"fig14", "table10", "fig15", "table11", "table12", "table13", "fig16",
		"adaptive",
	}
	return ids
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

// harness carries per-run shared state (pretrained weights cache) and the
// suite worker pool used to fan independent tuning sessions out.
type harness struct {
	cfg  Config
	ctx  context.Context // == cfg.Ctx; a receiver-level field so every harness method can forward it
	sc   scale
	pool *parallel.Pool
}

func newHarness(cfg Config) *harness {
	cfg = cfg.withDefaults()
	return &harness{cfg: cfg, ctx: cfg.Ctx, sc: scaleOf(cfg.Full), pool: parallel.New(cfg.Parallelism)}
}

func (h *harness) printf(format string, args ...any) {
	fmt.Fprintf(h.cfg.Out, format, args...)
}

// ---------------------------------------------------------------------------
// Pretraining with disk cache.

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

// offlineDataset builds (once per process) the synthetic TenSet slice for
// one device. Concurrent sessions may race to the same key, so the whole
// get-or-generate runs under dsMu; the generation itself parallelizes
// internally.
func (h *harness) offlineDataset(dev *device.Device) *dataset.Dataset {
	key := fmt.Sprintf("ds-%s-%s", dev.Name, h.sc.tag)
	dsMu.Lock()
	ds, ok := dsCache[key]
	dsMu.Unlock()
	if ok {
		return ds
	}
	// Generate outside the lock: a dataset build dispatches measurements
	// and must not stall other runners on dsMu. Generation is
	// deterministic, so a racing duplicate build produces an identical
	// dataset and only the cache insert needs arbitration.
	ds = dataset.Generate(h.ctx, dev, h.pretrainTasks(), dataset.GenOptions{
		SchedulesPerTask: h.sc.datasetPerTask,
		Seed:             h.cfg.Seed + int64(len(key)),
		Pool:             h.pool,
	})
	dsMu.Lock()
	if cached, ok := dsCache[key]; ok {
		ds = cached
	} else {
		dsCache[key] = ds
	}
	dsMu.Unlock()
	return ds
}

var (
	dsMu    sync.Mutex
	dsCache = map[string]*dataset.Dataset{}
)

// newModel constructs a fresh cost model by kind.
func newModel(kind string, seed int64) costmodel.Model {
	switch kind {
	case "pacm":
		return costmodel.NewPaCM(seed)
	case "pacm-no-sf":
		return costmodel.NewPaCMAblated(seed, false, true)
	case "pacm-no-tdf":
		return costmodel.NewPaCMAblated(seed, true, false)
	case "tensetmlp":
		return costmodel.NewTenSetMLP(seed)
	case "tlp":
		return costmodel.NewTLP(seed)
	default:
		panic("experiments: unknown model kind " + kind)
	}
}

// pretrained returns cached cross-platform weights for (kind, device),
// training and persisting them on first use. preMu serializes concurrent
// sessions training the same weights (it nests over dsMu via
// offlineDataset; nothing acquires them in the reverse order).
func (h *harness) pretrained(kind string, dev *device.Device) []*nn.Tensor {
	key := fmt.Sprintf("pre-%s-%s-%s", kind, dev.Name, h.sc.tag)
	preMu.Lock()
	w, ok := preCache[key]
	preMu.Unlock()
	if ok {
		return w
	}
	// Pretraining (and the dataset generation it may trigger) runs
	// outside the lock: it dispatches measurements and can take minutes.
	// Fitting is deterministic for a fixed seed, so a racing duplicate
	// yields identical weights; the cache insert arbitrates below.
	m := newModel(kind, h.cfg.Seed+77)
	path := filepath.Join(h.cfg.CacheDir, key+".gob")
	if f, err := os.Open(path); err == nil {
		err = nn.LoadParams(f, m.Params())
		_ = f.Close() // read-side close of a best-effort cache
		if err == nil {
			return h.insertPretrained(key, tuner.SnapshotParams(m))
		}
	}
	ds := h.offlineDataset(dev)
	if pu, ok := m.(costmodel.PoolUser); ok {
		// Offline pretraining shards its task groups over the suite pool;
		// the fitted weights are identical at any worker count.
		pu.SetPool(h.pool)
	}
	m.Fit(ds.Records(), costmodel.FitOptions{
		Epochs: h.sc.pretrainEpochs, Seed: h.cfg.Seed,
		Cache: costmodel.NewFitCache(), // once-per-record features across epochs
	})
	w = h.insertPretrained(key, tuner.SnapshotParams(m))
	if err := os.MkdirAll(h.cfg.CacheDir, 0o755); err == nil {
		if f, err := os.Create(path); err == nil {
			_ = nn.SaveParams(f, m.Params())
			_ = f.Close() // cache write is best-effort; a torn file fails LoadParams next run
		}
	}
	return w
}

// insertPretrained publishes freshly fitted weights, first writer wins.
func (h *harness) insertPretrained(key string, w []*nn.Tensor) []*nn.Tensor {
	preMu.Lock()
	defer preMu.Unlock()
	if cached, ok := preCache[key]; ok {
		return cached
	}
	preCache[key] = w
	return w
}

var (
	preMu    sync.Mutex
	preCache = map[string][]*nn.Tensor{}
)

// ---------------------------------------------------------------------------
// Tuning method dispatch.

// tune runs one tuning session of the given method over tasks.
func (h *harness) tune(dev *device.Device, tasks []*ir.Task, method string, seed int64) *tuner.Result {
	sc := h.sc
	opt := tuner.Options{
		Ctx:         h.ctx,
		Trials:      sc.trials,
		Seed:        seed,
		Pool:        h.pool, // one budget across the suite, not one per session
		AdaptBudget: h.cfg.AdaptBudget,
		Fit:         costmodel.FitOptions{Epochs: sc.onlineEpochs, Seed: seed},
	}
	evo := search.EvoParams{Population: sc.evoPop, Generations: sc.evoGens, MutateProb: 0.85, CrossProb: 0.05}
	lse := search.LSEParams{SpecSize: sc.specSize, Population: sc.evoPop, Steps: sc.evoGens, MutateProb: 0.85, CrossProb: 0.05}
	prunerPolicy := func() *search.PrunerPolicy {
		return &search.PrunerPolicy{LSE: lse, RandomDraft: sc.randomDraft, ExploitDraft: sc.randomDraft, Eps: 0.10}
	}
	ansorPolicy := func() *search.AnsorPolicy {
		return &search.AnsorPolicy{Evo: evo, Eps: 0.10}
	}

	switch method {
	case "ansor":
		opt.Policy = ansorPolicy()
		opt.Model = costmodel.NewTenSetMLP(seed + 1)
		opt.OnlineTrain = true
	case "pruner": // online, no pretrain (paper's "Pruner" / "w/o MoA")
		opt.Policy = prunerPolicy()
		opt.Model = costmodel.NewPaCM(seed + 1)
		opt.OnlineTrain = true
	case "moa-pruner":
		opt.Policy = prunerPolicy()
		opt.Model = costmodel.NewPaCM(seed + 1)
		opt.OnlineTrain = true
		opt.Adaptation = tuner.AdaptMoA
		opt.Pretrained = h.pretrained("pacm", device.K80)
	case "pruner-of": // online fine-tuning ablation (Table 12 "w/ O-F")
		opt.Policy = prunerPolicy()
		opt.Model = costmodel.NewPaCM(seed + 1)
		opt.OnlineTrain = true
		opt.Adaptation = tuner.AdaptFineTune
		opt.Pretrained = h.pretrained("pacm", device.K80)
	case "pruner-no-lse": // Table 12/13 "w/o LSE": PaCM over all explored
		opt.Policy = ansorPolicy()
		opt.Model = costmodel.NewPaCM(seed + 1)
		opt.OnlineTrain = true
	case "pruner-no-sf", "pruner-no-tdf":
		opt.Policy = prunerPolicy()
		kind := "pacm-no-sf"
		if method == "pruner-no-tdf" {
			kind = "pacm-no-tdf"
		}
		opt.Model = newModel(kind, seed+1)
		opt.OnlineTrain = true
	case "tensetmlp": // offline mode
		opt.Policy = ansorPolicy()
		opt.Model = costmodel.NewTenSetMLP(seed + 1)
		opt.Adaptation = tuner.AdaptFineTune
		opt.Pretrained = h.pretrained("tensetmlp", dev)
	case "tlp": // offline mode
		opt.Policy = ansorPolicy()
		opt.Model = costmodel.NewTLP(seed + 1)
		opt.Adaptation = tuner.AdaptFineTune
		opt.Pretrained = h.pretrained("tlp", dev)
	case "pruner-offline":
		opt.Policy = prunerPolicy()
		opt.Model = costmodel.NewPaCM(seed + 1)
		opt.Adaptation = tuner.AdaptFineTune
		opt.Pretrained = h.pretrained("pacm", dev)
	case "pruner-offline-no-lse": // Table 13 "w/o LSE" offline
		opt.Policy = ansorPolicy()
		opt.Model = costmodel.NewPaCM(seed + 1)
		opt.Adaptation = tuner.AdaptFineTune
		opt.Pretrained = h.pretrained("pacm", dev)
	case "metaschedule":
		opt.Policy = &search.MetaSchedulePolicy{Evo: evo, Eps: 0.15}
		opt.Model = costmodel.NewTenSetMLP(seed + 1)
		opt.OnlineTrain = true
		opt.TensorCore = true
	case "pruner-tc":
		opt.Policy = prunerPolicy()
		opt.Model = costmodel.NewPaCM(seed + 1)
		opt.OnlineTrain = true
		opt.TensorCore = true
	case "roller":
		opt.Policy = &search.RollerPolicy{CandidatePool: 2000}
		opt.Model = costmodel.NewRandom(seed + 1)
		opt.Trials = sc.rollerPerTask * len(tasks)
	case "adatune": // early-terminated measurements: cheaper but noisier
		opt.Policy = ansorPolicy()
		opt.Model = costmodel.NewTenSetMLP(seed + 1)
		opt.OnlineTrain = true
		opt.Trials = sc.trials * 85 / 100
		opt.Measurer = measure.NewSim(simulator.NewWithConfig(dev, simulator.Config{MeasureNoise: 0.09}))
	case "felix": // gradient-descent-style local search
		opt.Policy = &search.AnsorPolicy{
			Evo: search.EvoParams{Population: sc.evoPop / 3, Generations: sc.evoGens, MutateProb: 1.0, CrossProb: 0},
			Eps: 0,
		}
		opt.Model = costmodel.NewTenSetMLP(seed + 1)
		opt.OnlineTrain = true
	case "tlm": // language-model-assisted: offline-pretrained guidance
		opt.Policy = ansorPolicy()
		opt.Model = costmodel.NewTenSetMLP(seed + 1)
		opt.OnlineTrain = true
		opt.Adaptation = tuner.AdaptFineTune
		opt.Pretrained = h.pretrained("tensetmlp", dev)
	default:
		panic("experiments: unknown method " + method)
	}
	if !h.cfg.Full {
		// Scaled runs shrink per-round candidate budgets; charge the
		// simulated exploration clock at paper-scale rates so timing
		// comparisons (curves, Tables 1/5/7, Figure 7) stay meaningful.
		cost := simulator.DefaultCostParams(dev)
		xf := 1.0
		switch opt.Policy.(type) {
		case *search.PrunerPolicy:
			xf = 512.0 / float64(sc.specSize)
		case *search.AnsorPolicy, *search.MetaSchedulePolicy:
			xf = 8000.0 / float64(sc.evoPop*sc.evoGens)
		}
		cost.FeatureExtract *= xf
		cost.ModelInfer *= xf
		cost.DraftEval *= xf
		opt.Cost = cost
	}
	return tuner.Tune(dev, tasks, opt)
}

// session is one independent tuning job of a suite-level fan-out.
type session struct {
	dev    *device.Device
	tasks  []*ir.Task
	method string
	seed   int64
}

// tuneAll runs independent sessions concurrently on the suite pool and
// returns results in input order, so callers print rows deterministically
// no matter how the sessions interleave. Each session is self-seeded; the
// only state they share through h — the pretrained-weights and dataset
// caches — is mutex-guarded.
func (h *harness) tuneAll(ss []session) []*tuner.Result {
	return parallel.Map(h.pool, len(ss), func(i int) *tuner.Result {
		return h.tune(ss[i].dev, ss[i].tasks, ss[i].method, ss[i].seed)
	})
}

// tasksOf selects the session's tasks for a network at the current scale.
func (h *harness) tasksOf(net *workloads.Network) []*ir.Task {
	return net.Representative(h.sc.maxTasks)
}

// net fetches a workload or panics (experiment definitions are static).
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

// methodsSorted returns map keys in stable order.
func methodsSorted[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// saBest evaluates the draft analyzer's score for all entries of a task
// set (used by the Best-k experiments).
func saBest(a *analyzer.Analyzer, s *dataset.TaskSet) []float64 {
	sa := costmodel.NewSA(a)
	return predictSet(sa, s)
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
