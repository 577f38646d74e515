// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation section (§6). Each benchmark executes the
// corresponding experiment runner from internal/experiments in scaled mode
// and prints the reproduced rows/series, so `go test -bench=.` regenerates
// the whole evaluation. Paper-scale parameters are available through
// `go run ./cmd/pruner-bench -exp <id> -full`.
//
// DESIGN.md §3 maps benchmark names to experiment IDs, workloads and
// modules; EXPERIMENTS.md records paper-vs-measured values.
//
// The session hot paths have their own harnesses next to the code they
// measure: BenchmarkPredictBatched (internal/costmodel) compares the
// batched no-tape inference engine against the per-candidate baseline
// it replaced (DESIGN.md §7), and BenchmarkFit (internal/costmodel)
// compares the data-parallel incremental training engine against the
// retained serial per-group reference (DESIGN.md §8). CI runs every
// internal benchmark once per push (`make bench-smoke`) so bench code
// cannot bit-rot.
package pruner

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"pruner/internal/experiments"
)

// runExperiment executes one experiment per benchmark iteration. The
// runners are deterministic for a fixed seed; b.N is normally 1 because
// every run takes seconds to minutes.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	runner, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := experiments.Config{Seed: 42, Out: os.Stdout, CacheDir: ".cache"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runner(cfg); err != nil {
			b.Fatalf("experiment %s: %v", id, err)
		}
	}
}

// BenchmarkTable1_AnsorCostBreakdown reproduces Table 1: Ansor's tuning
// cost split (exploration / training / measurement) on Orin.
func BenchmarkTable1_AnsorCostBreakdown(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFig6_TuningCurves reproduces Figure 6: online and offline
// tuning curves across the three platforms.
func BenchmarkFig6_TuningCurves(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7_SearchTime reproduces Figure 7: time for Pruner to reach
// each baseline's final best on A100.
func BenchmarkFig7_SearchTime(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkTable5_MoreTrials reproduces Table 5: MoA-Pruner at 2k trials
// vs Ansor with 3-5x the trials and TenSet's transfer strategy.
func BenchmarkTable5_MoreTrials(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkFig8_MoreCompilers reproduces Figure 8: Adatune, Felix and TLM
// comparisons, including their failure cases.
func BenchmarkFig8_MoreCompilers(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkTable6_Roller reproduces Table 6: the Roller comparison on
// Titan V.
func BenchmarkTable6_Roller(b *testing.B) { runExperiment(b, "table6") }

// BenchmarkFig9_Frameworks reproduces Figure 9: PyTorch / Triton /
// TensorRT comparisons on A100.
func BenchmarkFig9_Frameworks(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10_LongContext reproduces Figure 10: Llama long-context
// decoding (bs=32) plus its tuning curve.
func BenchmarkFig10_LongContext(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11_SingleOps reproduces Figure 11: single-operator tuning
// against PyTorch and Ansor.
func BenchmarkFig11_SingleOps(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkTable7_CompileCost reproduces Table 7: end-to-end compilation
// time on Titan V.
func BenchmarkTable7_CompileCost(b *testing.B) { runExperiment(b, "table7") }

// BenchmarkFig12_TensorCore reproduces Figure 12: TensorCore LLM inference
// vs MetaSchedule / Triton / PyTorch.
func BenchmarkFig12_TensorCore(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkTable8_SplitK reproduces Table 8: GPT-2 linear operators where
// cudaLib's splitK beats tuning on the deep-reduction shape.
func BenchmarkTable8_SplitK(b *testing.B) { runExperiment(b, "table8") }

// BenchmarkTable9_MSSpeedup reproduces Table 9: Pruner's search speedup
// over MetaSchedule on TensorCore.
func BenchmarkTable9_MSSpeedup(b *testing.B) { runExperiment(b, "table9") }

// BenchmarkFig13_DecodeOps reproduces Figure 13: Llama decode operators on
// TensorCore.
func BenchmarkFig13_DecodeOps(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkFig14_BestK reproduces Figure 14: Best-k of S_spec, LSE vs a
// random exploration strategy.
func BenchmarkFig14_BestK(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkTable10_LSEAblation reproduces Table 10: Best-1 vs spec size
// with penalty groups removed.
func BenchmarkTable10_LSEAblation(b *testing.B) { runExperiment(b, "table10") }

// BenchmarkFig15_DataEfficiency reproduces Figure 15: Top-1 vs
// training-set size for the three cost models.
func BenchmarkFig15_DataEfficiency(b *testing.B) { runExperiment(b, "fig15") }

// BenchmarkTable11_TopK reproduces Table 11: Top-1/Top-5 on the T4 and
// K80 dataset splits.
func BenchmarkTable11_TopK(b *testing.B) { runExperiment(b, "table11") }

// BenchmarkTable12_OnlineAblation reproduces Table 12: the online-mode
// component ablation.
func BenchmarkTable12_OnlineAblation(b *testing.B) { runExperiment(b, "table12") }

// BenchmarkTable13_OfflineAblation reproduces Table 13: the offline-mode
// LSE ablation.
func BenchmarkTable13_OfflineAblation(b *testing.B) { runExperiment(b, "table13") }

// BenchmarkFig16_AblationCurve reproduces Figure 16: ResNet-50 ablation
// tuning curves on Titan V.
func BenchmarkFig16_AblationCurve(b *testing.B) { runExperiment(b, "fig16") }

// BenchmarkTuneParallel sweeps the session worker count over one
// fixed-seed tuning session, so BENCH_*.json snapshots capture the
// parallel runtime's speedup curve alongside the paper tables. The
// session is identical at every worker count (the determinism contract,
// DESIGN.md §5); only wall-clock should move.
func BenchmarkTuneParallel(b *testing.B) {
	net, err := LoadNetwork("bert_tiny")
	if err != nil {
		b.Fatal(err)
	}
	workers := []int{1, 2, 4, 8}
	if n := runtime.NumCPU(); n > 8 {
		workers = append(workers, n)
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Tune(A100, net, Config{
					Method:      MethodPruner,
					Trials:      80,
					MaxTasks:    2,
					Seed:        7,
					Parallelism: w,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Curve) == 0 {
					b.Fatal("empty tuning curve")
				}
			}
		})
	}
}

// BenchmarkAblation_SAvsOracle quantifies the draft model's ranking gap to
// the simulator ground truth (DESIGN.md §4): the sum-based Eq. 1 against
// the overlap-based execution model.
func BenchmarkAblation_SAvsOracle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.AblationSAvsOracle(experiments.Config{Seed: 42, Out: os.Stdout}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Momentum sweeps MoA's momentum coefficient (DESIGN.md
// §4).
func BenchmarkAblation_Momentum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.AblationMomentum(experiments.Config{Seed: 42, Out: os.Stdout, CacheDir: ".cache"}); err != nil {
			b.Fatal(err)
		}
	}
}
