// Package dataset builds and evaluates the synthetic stand-in for the
// TenSet tensor-program dataset: per-subgraph schedule samples measured on
// a simulated device, with the paper's Top-k (Eq. 2) and Best-k (Eq. 3)
// metrics and the train/test split used in §6.5.
package dataset

import (
	"context"
	"math"
	"math/rand"

	"pruner/internal/costmodel"
	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/measure"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
	"pruner/internal/simulator"
	"pruner/internal/workloads"
)

// Entry is one measured tensor program.
type Entry struct {
	Sched   *schedule.Schedule
	Latency float64 // seconds; +Inf for failed builds
}

// TaskSet holds the dataset slice of one subgraph.
type TaskSet struct {
	Task    *ir.Task
	Entries []Entry
	// Best is the minimum valid latency (L*_i in Eqs. 2-3).
	Best float64
}

// Dataset is a collection of task sets measured on one device.
type Dataset struct {
	Device string
	Sets   []*TaskSet
}

// mutationFrac is the share of each task's samples grown by mutating
// earlier samples, giving the latency distribution TenSet-like structure.
// It is typed so 1-mutationFrac rounds like float64 arithmetic.
const mutationFrac float64 = 0.3

// GenOptions configure dataset generation.
type GenOptions struct {
	// SchedulesPerTask is the exploration size per subgraph (TenSet: 4,000).
	SchedulesPerTask int
	// Seed drives sampling and measurement noise.
	Seed int64
	// Pool bounds the measurement fan-out (nil: the process pool).
	// Sharing a caller-owned pool keeps dataset generation inside a
	// concurrent suite from multiplying the suite's concurrency. Schedule
	// sampling and noise stay on one sequential stream, so the dataset is
	// bitwise identical at any worker count.
	Pool *parallel.Pool
}

func (o GenOptions) withDefaults() GenOptions {
	if o.SchedulesPerTask == 0 {
		o.SchedulesPerTask = 4000
	}
	return o
}

// Generate measures opt.SchedulesPerTask schedules for every task on the
// device. Sampling walks one sequential stream (the dataset content is a
// calibrated artefact — see the calibration tests — so it must not depend
// on worker count or task fan-out); the per-schedule latency evaluations,
// which dominate the cost, run on the worker pool.
func Generate(ctx context.Context, dev *device.Device, tasks []*ir.Task, opt GenOptions) *Dataset {
	opt = opt.withDefaults()
	sim := simulator.New(dev)
	meas := measure.NewSim(sim)
	rng := rand.New(rand.NewSource(opt.Seed))
	ds := &Dataset{Device: dev.Name}
	for _, t := range tasks {
		gen := schedule.NewGenerator(t)
		gen.MaxThreads = dev.MaxThreads
		gen.MaxSharedWords = dev.SharedPerBlock
		nRandom := int(float64(opt.SchedulesPerTask) * (1 - mutationFrac))
		schs := gen.InitPopulation(rng, nRandom)
		for len(schs) < opt.SchedulesPerTask {
			parent := schs[rng.Intn(len(schs))]
			schs = append(schs, gen.Mutate(rng, parent))
		}
		// Only successfully built programs enter the dataset, as in TenSet:
		// failed builds never produce a latency record. The adapter
		// returns true latencies; the noise draws stay here on the
		// generator's sequential stream.
		set := &TaskSet{Task: t, Best: math.Inf(1)}
		results, err := meas.Measure(ctx, measure.Request{
			Device: dev.Name, Task: t, Batch: schs, Pool: opt.Pool,
		})
		if err != nil {
			// Cancelled: the task contributes no entries, like a task
			// whose builds all failed.
			ds.Sets = append(ds.Sets, set)
			continue
		}
		simulator.ApplyNoise(results, rng, sim.MeasureNoise())
		for i, r := range results {
			if !r.Valid {
				continue
			}
			set.Entries = append(set.Entries, Entry{Sched: schs[i], Latency: r.Latency})
			if r.Latency < set.Best {
				set.Best = r.Latency
			}
		}
		ds.Sets = append(ds.Sets, set)
	}
	return ds
}

// Records flattens the dataset into cost-model training records.
func (d *Dataset) Records() []costmodel.Record {
	var out []costmodel.Record
	for _, s := range d.Sets {
		for _, e := range s.Entries {
			out = append(out, costmodel.Record{Task: s.Task, Sched: e.Sched, Latency: e.Latency})
		}
	}
	return out
}

// Subsample returns a dataset view with at most perTask entries per task,
// for the Figure 15 data-efficiency sweep.
func (d *Dataset) Subsample(perTask int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	out := &Dataset{Device: d.Device}
	for _, s := range d.Sets {
		idx := rng.Perm(len(s.Entries))
		n := perTask
		if n > len(idx) {
			n = len(idx)
		}
		ns := &TaskSet{Task: s.Task, Best: math.Inf(1)}
		for _, i := range idx[:n] {
			ns.Entries = append(ns.Entries, s.Entries[i])
			if l := s.Entries[i].Latency; l < ns.Best {
				ns.Best = l
			}
		}
		out.Sets = append(out.Sets, ns)
	}
	return out
}

// Size is the total number of entries.
func (d *Dataset) Size() int {
	n := 0
	for _, s := range d.Sets {
		n += len(s.Entries)
	}
	return n
}

// TestNetworks is the paper's §6.5 held-out set.
var TestNetworks = []string{"resnet50", "resnet3d18", "mobilenet_v2", "bert_base", "bert_tiny"}

// TrainNetworks is the complementary training set drawn from the zoo.
var TrainNetworks = []string{
	"wide_resnet50", "densenet121", "inception_v3", "dcgan", "deeplab_v3",
	"vit", "detr", "bert_large", "gpt2", "llama", "opt",
}

// NetworksTasks gathers the unique tasks of the named workloads,
// preserving per-network weights.
func NetworksTasks(names []string) ([]*ir.Task, error) {
	seen := map[string]*ir.Task{}
	var out []*ir.Task
	for _, name := range names {
		net, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, t := range net.Tasks {
			if prev, ok := seen[t.ID]; ok {
				prev.Weight += t.Weight
				continue
			}
			seen[t.ID] = t
			out = append(out, t)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Metrics.

// TopK is Eq. 2: the ratio of the weighted-optimal latency to the weighted
// best latency found within each task's top-k model-scored programs.
// score must return per-entry scores (higher = better) for a task set.
func (d *Dataset) TopK(k int, score func(*TaskSet) []float64) float64 {
	var num, den float64
	for _, s := range d.Sets {
		if math.IsInf(s.Best, 1) || len(s.Entries) == 0 {
			continue
		}
		scores := score(s)
		bestOfTop := bestLatencyOfTopK(s, scores, k)
		w := float64(s.Task.Weight)
		num += s.Best * w
		den += bestOfTop * w
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// bestLatencyOfTopK finds min latency among the k highest-scored entries.
func bestLatencyOfTopK(s *TaskSet, scores []float64, k int) float64 {
	type pair struct {
		score, lat float64
	}
	pairs := make([]pair, len(s.Entries))
	for i, e := range s.Entries {
		pairs[i] = pair{scores[i], e.Latency}
	}
	// Partial selection of top-k by score.
	if k > len(pairs) {
		k = len(pairs)
	}
	for i := 0; i < k; i++ {
		maxJ := i
		for j := i + 1; j < len(pairs); j++ {
			if pairs[j].score > pairs[maxJ].score {
				maxJ = j
			}
		}
		pairs[i], pairs[maxJ] = pairs[maxJ], pairs[i]
	}
	best := math.Inf(1)
	for i := 0; i < k; i++ {
		if pairs[i].lat < best {
			best = pairs[i].lat
		}
	}
	return best
}

// BestK is Eq. 3 for one task set: the ratio of the set optimum to the
// k-th best latency among the selected subset (S_spec), indices into
// s.Entries.
func BestK(s *TaskSet, spec []int, k int) float64 {
	if len(spec) == 0 || math.IsInf(s.Best, 1) {
		return 0
	}
	lats := make([]float64, 0, len(spec))
	for _, i := range spec {
		lats = append(lats, s.Entries[i].Latency)
	}
	// k-th best (1-indexed).
	if k > len(lats) {
		k = len(lats)
	}
	for i := 0; i < k; i++ {
		minJ := i
		for j := i + 1; j < len(lats); j++ {
			if lats[j] < lats[minJ] {
				minJ = j
			}
		}
		lats[i], lats[minJ] = lats[minJ], lats[i]
	}
	kth := lats[k-1]
	if math.IsInf(kth, 1) {
		return 0
	}
	return s.Best / kth
}

// WeightedBestK aggregates Eq. 3 over task sets with subgraph weights:
// sum(L* x w) / sum(Lhat_k x w).
func WeightedBestK(sets []*TaskSet, specs [][]int, k int) float64 {
	var num, den float64
	for i, s := range sets {
		if math.IsInf(s.Best, 1) {
			continue
		}
		r := BestK(s, specs[i], k)
		if r == 0 {
			continue
		}
		w := float64(s.Task.Weight)
		num += s.Best * w
		den += s.Best / r * w
	}
	if den == 0 {
		return 0
	}
	return num / den
}
