// Package costmodel defines the cost models that rank candidate
// schedules: the paper's Pattern-aware Cost Model (PaCM), the TenSetMLP
// and TLP baselines, and a random-score control. All learned models share
// the ranking trainer: records are grouped per task, labelled with
// normalised throughput and optimised with the LambdaRank loss, as in the
// paper.
package costmodel

import (
	"math"
	"math/rand"

	"pruner/internal/ir"
	"pruner/internal/nn"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
)

// Record is one measured tensor program: the training unit of online and
// offline cost-model tuning.
type Record struct {
	Task    *ir.Task
	Sched   *schedule.Schedule
	Latency float64 // seconds; +Inf marks a failed measurement
}

// maxGroup bounds samples per task group per epoch: ranking lists get
// quadratic in group size, so a larger group trains on a fresh subsample
// each epoch.
const maxGroup = 128

// macroBatch is the number of task groups whose gradients the parallel
// trainer averages into one optimiser step. Groups within a macro-batch
// shard across the session pool; a fixed size keeps the stepping schedule
// — and the fitted parameters — independent of the worker count.
const macroBatch = 8

// FitOptions configures one training call. Every fit runs at the
// learning rate its model was built with (TLP's is deliberately higher).
// A fit lowers (and, through Lowered's feature cache, featurizes) each
// record once per call, into a memo of its own that it releases on
// return (rankFit).
type FitOptions struct {
	Epochs int
	Seed   int64
}

func (o FitOptions) withDefaults() FitOptions {
	if o.Epochs == 0 {
		o.Epochs = 15
	}
	return o
}

// FitReport summarises one training call for logging and simulated-clock
// accounting.
type FitReport struct {
	// Loss is the mean loss of the final epoch, or NaN when no batch
	// trained (Batches == 0) — distinguishing "trained to zero loss" from
	// "every group was degenerate and training never ran".
	Loss         float64
	Samples      int // distinct training samples
	SampleVisits int // samples x epochs actually processed
	// Batches counts the ranking batches processed across all epochs.
	Batches int
}

// Costs are per-model multipliers over the platform's base CostParams,
// reflecting that TLP's transformer is far heavier than the MLP and that
// the draft model needs no feature extraction pipeline.
type Costs struct {
	FeatureX float64
	InferX   float64
	TrainX   float64
}

// Model scores candidate schedules of a task; higher is better.
type Model interface {
	Name() string
	// Predict scores candidates. Scores are comparable within one call.
	Predict(t *ir.Task, schs []*schedule.Schedule) []float64
	// Fit trains on measured records (no-op for analytical models).
	Fit(recs []Record, opt FitOptions) FitReport
	// Params exposes trainable parameters (nil for analytical models);
	// used by MoA's Siamese updates and by pretraining snapshots.
	Params() []*nn.Tensor
	// Costs returns simulated-clock multipliers.
	Costs() Costs
}

// New builds a fresh learned model of the named kind ("pacm",
// "tensetmlp", "tlp") with the given init seed; ok is false for any other
// name.
func New(kind string, seed int64) (m Model, ok bool) {
	switch kind {
	case "pacm":
		return NewPaCM(seed), true
	case "tensetmlp":
		return NewTenSetMLP(seed), true
	case "tlp":
		return NewTLP(seed), true
	}
	return nil, false
}

// Relevances converts a group's latencies into ranking labels: the
// normalised throughput min_latency / latency in (0, 1], with failed
// measurements at 0.
func Relevances(lats []float64) []float64 {
	best := math.Inf(1)
	for _, l := range lats {
		if l > 0 && l < best {
			best = l
		}
	}
	rel := make([]float64, len(lats))
	if math.IsInf(best, 1) {
		return rel
	}
	for i, l := range lats {
		if l > 0 && !math.IsInf(l, 1) {
			rel[i] = best / l
		}
	}
	return rel
}

// group is the per-task training unit used by the shared ranking trainer:
// each record's lowering next to its latency.
type group struct {
	task *ir.Task
	lws  []*schedule.Lowered
	lats []float64
}

// groupByTask splits records into per-task groups with stable order;
// lws[i] is recs[i]'s lowering.
func groupByTask(recs []Record, lws []*schedule.Lowered) []group {
	idx := map[string]int{}
	var groups []group
	for i, r := range recs {
		k, ok := idx[r.Task.ID]
		if !ok {
			k = len(groups)
			idx[r.Task.ID] = k
			groups = append(groups, group{task: r.Task})
		}
		groups[k].lws = append(groups[k].lws, lws[i])
		groups[k].lats = append(groups[k].lats, r.Latency)
	}
	return groups
}

// forwardFn scores a batch of lowered programs of one task on s (nil =
// heap), building a gradient graph when the model is training.
type forwardFn func(s *nn.Scratch, lws []*schedule.Lowered) *nn.Tensor

// trainBatch is one group's ready-to-train slice of an epoch: the
// (possibly subsampled) lowerings plus their relevance labels. Batches
// are composed on the serial path — every random draw happens there —
// and only then fanned out to workers.
type trainBatch struct {
	task *ir.Task
	lws  []*schedule.Lowered
	rel  []float64
}

// epochBatches composes one epoch's training batches in the shuffled
// group order, consuming rng exactly like the serial reference loop:
// one groups-shuffle, then one subsample-shuffle per over-size group.
func epochBatches(groups []group, rng *rand.Rand) []trainBatch {
	rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	var batches []trainBatch
	for _, g := range groups {
		lws, lats := g.lws, g.lats
		if len(lws) > maxGroup {
			lws = append([]*schedule.Lowered(nil), lws...)
			lats = append([]float64(nil), lats...)
			rng.Shuffle(len(lws), func(i, j int) {
				lws[i], lws[j] = lws[j], lws[i]
				lats[i], lats[j] = lats[j], lats[i]
			})
			lws, lats = lws[:maxGroup], lats[:maxGroup]
		}
		if len(lws) < 2 {
			continue
		}
		batches = append(batches, trainBatch{task: g.task, lws: lws, rel: Relevances(lats)})
	}
	return batches
}

// rankFit is the shared LambdaRank training engine. It lowers every
// record once, fanned over the pool, into a memo it draws for the call
// and releases on return, so no lowering or feature row outlives the fit.
// Each epoch's task groups are then sharded across the session pool in
// macro-batches of size task groups (macroBatch in every product fit).
// Group j of a macro-batch runs its forward/backward on the trainer's
// replica j (weights aliased to the live model, gradients in the
// replica's own buffers); the replicas' gradients are then averaged in
// fixed group order and applied with one Adam step per macro-batch.
// Because every random draw stays on the serial path and the reduction
// order is fixed, the fitted parameters are bitwise identical at any
// worker count — the same bar the batched inference engine holds
// (TestFitDeterministicAcrossWorkers).
func rankFit(recs []Record, opt FitOptions, adam *nn.Adam, pool *parallel.Pool, seed int64, tr *trainer, size int) FitReport {
	opt = opt.withDefaults()
	report := FitReport{Loss: math.NaN(), Samples: len(recs)}
	if len(recs) == 0 {
		return report
	}
	memo := schedule.NewMemo()
	defer memo.Release()
	lws := make([]*schedule.Lowered, len(recs))
	pool.ForEach(len(recs), func(i int) { lws[i] = memo.Lower(recs[i].Task, recs[i].Sched) })
	groups := groupByTask(recs, lws)
	rng := rand.New(rand.NewSource(seed ^ opt.Seed))
	losses := make([]float64, size)
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		batches := epochBatches(groups, rng)
		var epochLoss float64
		for lo := 0; lo < len(batches); lo += size {
			chunk := batches[lo:min(lo+size, len(batches))]
			tr.grow(len(chunk))
			pool.ForEach(len(chunk), func(j int) {
				losses[j] = tr.reps[j].step(chunk[j])
			})
			// Serial reduction in fixed group order, then one step over the
			// averaged macro-batch gradient (averaging keeps the per-step
			// magnitude comparable to a single-group step, so a macro-batch
			// of one reproduces the per-group reference bitwise).
			adam.ZeroGrad()
			scale := 1 / float64(len(chunk))
			for j := range chunk {
				nn.AddGrads(tr.params, tr.reps[j].params, scale)
				epochLoss += losses[j]
				report.SampleVisits += len(chunk[j].lws)
			}
			adam.Step()
			report.Batches += len(chunk)
		}
		if len(batches) > 0 {
			report.Loss = epochLoss / float64(len(batches))
		}
	}
	return report
}
