package experiments

import (
	"math/rand"
	"sort"

	"pruner/internal/analyzer"
	"pruner/internal/costmodel"
	"pruner/internal/dataset"
	"pruner/internal/device"
	"pruner/internal/ir"
)

// testDataset returns the §6.5 test split on a device, built once per
// process: the five held-out networks' dominant subgraphs with
// TenSet-style schedule pools.
func (h *harness) testDataset(dev *device.Device) *dataset.Dataset {
	return buildOnce(h.ctx, "test-"+dev.Name+"-"+h.sc.tag, func() *dataset.Dataset {
		perNet := 4
		if h.cfg.Full {
			perNet = 0
		}
		seen := map[string]bool{}
		var out []*ir.Task
		for _, name := range dataset.TestNetworks {
			for _, t := range mustNet(name).Representative(perNet) {
				if !seen[t.ID] {
					seen[t.ID] = true
					out = append(out, t)
				}
			}
		}
		return dataset.Generate(h.ctx, dev, out, dataset.GenOptions{
			SchedulesPerTask: h.sc.datasetPerTask,
			Seed:             h.cfg.Seed + 991,
			Pool:             h.pool,
		})
	})
}

// specIndicesSA ranks a task set's pool by the Symbol-based Analyzer and
// returns the indices of the top size entries — the paper's "drafting
// S_spec from all explored candidates".
func specIndicesSA(a *analyzer.Analyzer, s *dataset.TaskSet, size int) []int {
	scores := saBest(a, s)
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool { return scores[idx[x]] > scores[idx[y]] })
	if len(idx) > size {
		idx = idx[:size]
	}
	return idx
}

// specIndicesRandom samples a random subset of the pool (the random-GA
// strategy baseline).
func specIndicesRandom(rng *rand.Rand, n, size int) []int {
	idx := rng.Perm(n)
	if len(idx) > size {
		idx = idx[:size]
	}
	return idx
}

// Fig14 reproduces the Best-k comparison: S_spec drafted by LSE vs a
// random exploration strategy, on the TenSet T4 test networks.
func Fig14(cfg Config) error {
	h := newHarness(cfg)
	ds := h.testDataset(device.T4)
	a := analyzer.New(device.T4)
	sizes := []int{256, 512}
	if !cfg.Full {
		sizes = []int{64, 128}
	}
	ks := []int{1, 5, 20}
	h.printf("Figure 14: Best-k of S_spec, LSE vs random GA (TenSet T4) [%s]\n", h.sc.tag)
	h.printf("%-6s %-8s", "size", "method")
	for _, k := range ks {
		h.printf("   @%-5d", k)
	}
	h.printf("\n")
	rng := rand.New(rand.NewSource(cfg.Seed + 14))
	for _, size := range sizes {
		lseSpecs := make([][]int, len(ds.Sets))
		for i, s := range ds.Sets {
			lseSpecs[i] = specIndicesSA(a, s, size)
		}
		h.printf("%-6d %-8s", size, "LSE")
		for _, k := range ks {
			h.printf(" %8.3f", dataset.WeightedBestK(ds.Sets, lseSpecs, k))
		}
		h.printf("\n")
		// Random strategy averaged over repeats.
		sums := make([]float64, len(ks))
		for r := 0; r < h.sc.bestKRepeats; r++ {
			specs := make([][]int, len(ds.Sets))
			for i, s := range ds.Sets {
				specs[i] = specIndicesRandom(rng, len(s.Entries), size)
			}
			for j, k := range ks {
				sums[j] += dataset.WeightedBestK(ds.Sets, specs, k)
			}
		}
		h.printf("%-6d %-8s", size, "GA")
		for j := range ks {
			h.printf(" %8.3f", sums[j]/float64(h.sc.bestKRepeats))
		}
		h.printf("\n")
	}
	return nil
}

// Table10 ablates the LSE penalty groups: Best-1 of S_spec at several
// sizes with compute or memory penalties removed.
func Table10(cfg Config) error {
	h := newHarness(cfg)
	ds := h.testDataset(device.T4)
	sizes := []int{50, 128, 256, 512}
	if !cfg.Full {
		sizes = []int{16, 32, 64, 128}
	}
	configs := []struct {
		label string
		cfg   analyzer.Config
	}{
		{"w/o P_c", analyzer.Config{DisableComputePenalties: true}},
		{"w/o P_m", analyzer.Config{DisableMemoryPenalties: true}},
		{"LSE(ours)", analyzer.Config{}},
	}
	h.printf("Table 10: Best-1 of S_spec vs size, penalty ablations (TenSet T4) [%s]\n", h.sc.tag)
	h.printf("%-10s", "method")
	for _, s := range sizes {
		h.printf(" %8d", s)
	}
	h.printf("\n")
	for _, c := range configs {
		a := &analyzer.Analyzer{Dev: device.T4, Cfg: c.cfg}
		h.printf("%-10s", c.label)
		for _, size := range sizes {
			specs := make([][]int, len(ds.Sets))
			for i, s := range ds.Sets {
				specs[i] = specIndicesSA(a, s, size)
			}
			h.printf(" %8.3f", dataset.WeightedBestK(ds.Sets, specs, 1))
		}
		h.printf("\n")
	}
	return nil
}

// Fig15 sweeps the training-set size and reports Top-1 for PaCM,
// TenSetMLP and TLP — the data-efficiency claim behind the temporal
// dataflow features.
func Fig15(cfg Config) error {
	h := newHarness(cfg)
	train := h.offlineDataset(device.T4)
	test := h.testDataset(device.T4)
	perTaskSizes := []int{25, 60, 120, 220}
	if cfg.Full {
		perTaskSizes = []int{100, 300, 800, 2000}
	}
	h.printf("Figure 15: Top-1 vs training-set size (TenSet T4) [%s]\n", h.sc.tag)
	h.printf("%-10s %10s %10s %10s\n", "samples", "tensetmlp", "tlp", "pacm")
	for _, per := range perTaskSizes {
		sub := train.Subsample(per, cfg.Seed+int64(per))
		h.printf("%-10d", sub.Size())
		for _, kind := range []string{"tensetmlp", "tlp", "pacm"} {
			m, _ := costmodel.New(kind, cfg.Seed+int64(per)+7)
			if pu, ok := m.(costmodel.PoolUser); ok {
				pu.SetPool(h.pool)
			}
			m.Fit(sub.Records(), costmodel.FitOptions{Epochs: h.sc.pretrainEpochs, Seed: cfg.Seed})
			h.printf(" %10.3f", test.TopK(1, func(s *dataset.TaskSet) []float64 { return predictSet(m, s) }))
		}
		h.printf("\n")
	}
	return nil
}

// Table11 reports Top-1 / Top-5 of the three cost models on the T4 and
// K80 dataset splits at the full training budget.
func Table11(cfg Config) error {
	h := newHarness(cfg)
	h.printf("Table 11: Top-k on TenSet GPU datasets [%s]\n", h.sc.tag)
	h.printf("%-10s %10s %10s %10s %10s\n", "method", "T4 top-1", "T4 top-5", "K80 top-1", "K80 top-5")
	type res struct{ t1, t5, k1, k5 float64 }
	rows := map[string]res{}
	for _, dev := range []*device.Device{device.T4, device.K80} {
		train := h.offlineDataset(dev)
		test := h.testDataset(dev)
		for _, kind := range []string{"tensetmlp", "tlp", "pacm"} {
			m, _ := costmodel.New(kind, cfg.Seed+13)
			if pu, ok := m.(costmodel.PoolUser); ok {
				pu.SetPool(h.pool)
			}
			m.Fit(train.Records(), costmodel.FitOptions{Epochs: h.sc.pretrainEpochs, Seed: cfg.Seed})
			score := func(s *dataset.TaskSet) []float64 { return predictSet(m, s) }
			r := rows[kind]
			if dev == device.T4 {
				r.t1, r.t5 = test.TopK(1, score), test.TopK(5, score)
			} else {
				r.k1, r.k5 = test.TopK(1, score), test.TopK(5, score)
			}
			rows[kind] = r
		}
	}
	for _, kind := range []string{"tensetmlp", "tlp", "pacm"} {
		r := rows[kind]
		h.printf("%-10s %10.3f %10.3f %10.3f %10.3f\n", kind, r.t1, r.t5, r.k1, r.k5)
	}
	return nil
}
