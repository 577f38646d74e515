package main

import (
	"pruner"
	"pruner/internal/ir"
)

const (
	// sessionBatch is the engine's default measurements per round.
	sessionBatch = 10
	// warmupTrials sizes the reduced-scale operation every set-up ends with.
	warmupTrials = 20
	// setupReps is how often a run sets up; setup_s is the median.
	setupReps = 3
	// fleetWorkers is serve_fleet's loopback measurement workers, one per core.
	fleetWorkers = 2
	// pretrainSeed fixes moa_orin's source-platform dataset and weights:
	// they are the workload's input, not part of what a run's seed varies.
	pretrainSeed = 12
)

// pretrainSpec is the offline half of a cross-platform workload: a
// TenSet-style dataset measured on the source device and the epochs of
// PaCM pretraining on it, both done in set-up.
type pretrainSpec struct {
	device   string
	networks []string
	perTask  int
	epochs   int
}

// workload is one row of the benchmark: what runs and at what size. Why
// each exists, and which layer metric should move which end-to-end
// metric on it, is in BENCHMARK.json and README.md.
//
// Sizes are the issue's full-scale design (600/300/400 trials over 6/4/4
// tasks, 8 s of pretraining, 35-40 s a run) divided by one common factor
// of 6, because the harness that drives this benchmark allows ~30 s a
// run; tasks are cut to the two heaviest so that each still gets the
// ~5 rounds it needs to leave its random start.
type workload struct {
	name     string
	device   string
	network  string
	method   pruner.Method
	maxTasks int
	trials   int // per session; J1's budget on serve_fleet
	depth    int // pipeline depth
	pretrain *pretrainSpec

	// serve_fleet only: run through an in-process daemon and fleet, with
	// hits store-answered re-submissions and a deepTrials warm-started J3.
	fleet      bool
	hits       int
	deepTrials int

	// exactRate is how many sessions per second of -seconds enter the
	// quality metrics (final_latency_ms, sim_compile_s). The run always
	// completes that many, in seed order, however fast the machine is;
	// sessions beyond them only feed the wall-clock metrics. That makes
	// the quality metrics a pure function of (seed, seconds, code).
	exactRate float64
	// targetMS is the to-target metrics' pinned workload latency: 1.05 x
	// tuner.half_budget_latency_ms (the median over sessions of the
	// latency reached at half the trial budget) of a 40 s traced run with
	// seed 1000 at the commit that added the benchmark. online_ansor
	// shares online_pruner's target: the paper's speed-up is the ratio of
	// the two methods' time to one latency.
	targetMS float64
}

var workloads = []workload{
	{
		name: "online_pruner", device: "a100", network: "resnet50", method: pruner.MethodPruner,
		maxTasks: 2, trials: 100, depth: 1, exactRate: 0.45, targetMS: 0.5256,
	},
	{
		name: "online_ansor", device: "a100", network: "resnet50", method: pruner.MethodAnsor,
		maxTasks: 2, trials: 50, depth: 1, exactRate: 0.4, targetMS: 0.5256,
	},
	{
		name: "moa_orin", device: "orin", network: "bert_tiny", method: pruner.MethodMoAPruner,
		maxTasks: 2, trials: 70, depth: 1, exactRate: 0.7, targetMS: 1.0796,
		pretrain: &pretrainSpec{device: "k80", networks: []string{"wide_resnet50", "vit"}, perTask: 25, epochs: 4},
	},
	{
		name: "serve_fleet", device: "titanv", network: "vit", method: pruner.MethodPruner,
		maxTasks: 2, trials: 60, depth: 2, exactRate: 0.2, targetMS: 12.90,
		fleet: true, hits: 500, deepTrials: 100,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runner executes a workload's operations once set-up has built it.
type runner interface {
	// op runs one operation set — a session, or a serve_fleet cycle —
	// for the seed; a non-nil tracer arms the layer decorators.
	op(seed int64, tr *tracer) (*opResult, error)
	// subject is what the traced run's direct layer probes run on: the
	// workload's device and first task.
	subject() (*pruner.Device, *ir.Task)
}

// setup is everything before the first timed operation, ending with one
// reduced-scale warm-up operation.
func (w workload) setup(outDir string) (runner, error) {
	if w.fleet {
		return newFleetRunner(w, outDir)
	}
	return newSessionRunner(w)
}
