// Package pruner is a Go reproduction of "Pruner: A Draft-then-Verify
// Exploration Mechanism to Accelerate Tensor Program Tuning" (ASPLOS
// 2025).
//
// The package is the stable facade over the library's internals: GPU
// device models, DNN workloads partitioned into tuning tasks, the
// Draft-then-Verify search mechanism (Latent Schedule Explorer +
// Pattern-aware Cost Model), the MoA-Pruner momentum online adaptation,
// the Ansor / MetaSchedule / Roller / TenSetMLP / TLP baselines, a
// simulated measurement substrate standing in for real GPUs, and the
// TenSet-style dataset tooling with Top-k / Best-k metrics.
//
// Quick start:
//
//	net, _ := pruner.LoadNetwork("resnet50")
//	res, _ := pruner.Tune(pruner.A100, net, pruner.Config{
//		Method: pruner.MethodPruner,
//		Trials: 2000,
//	})
//	fmt.Printf("latency: %.3f ms\n", res.FinalLatency*1e3)
//
// Sessions run on Config.Pool (nil: the process pool of all CPUs, which
// every caller handed no pool shares; sessions handed one pool share its
// budget). Candidate drafting, cost-model inference and simulated
// measurement fan out across the pool while every random draw stays on
// deterministic per-task streams, so a fixed Config.Seed produces a
// bitwise-identical Result at any pool size — NewPool(1) is only ever
// slower, never different. The same contract extends to sessions seeded
// with Config.WarmStart records and observed via Config.Progress or
// cancelled via Config.Ctx.
//
// Measurement is pluggable (Config.Measurer): the default in-process
// simulator adapter, or a NewFleet of remote cmd/pruner-measure workers
// reached over HTTP — byte-identical results either way, because
// backends return true latencies and the session draws measurement
// noise from its own seeded streams. Config.PipelineDepth overlaps a
// round's measurement with the next round's search and the online fit
// (results committed in strict round order; depth 1 reproduces the
// serial loop bitwise, any fixed depth is bitwise reproducible at any
// pool size).
//
// Tuning-as-a-service: the cmd/pruner-serve daemon exposes tuning over
// HTTP with SSE progress, persists every measurement in a durable store,
// warm-starts new sessions from history, answers repeat requests for
// an already-tuned (device, network) from the store without searching,
// and dispatches measurement batches over registered pruner-measure
// workers. See API.md for the endpoint reference.
//
// Offline cost-model weights move between processes as bundles:
// SaveModel/LoadModel (and the pruner-tune -model-out / -model-in and
// pruner-serve -model-in flags) let one process pretrain and every
// later run — including the daemon's pretrained-weight methods — reuse
// the weights instead of re-pretraining.
//
// The determinism, concurrency and wire contract is machine-checked:
// cmd/pruner-vet (run by `make lint`, CI and plain `go test`, backed by
// the stdlib-only internal/lint framework) runs twelve analyzers in one
// pass over the module. No code draws from the process-global math/rand
// source, performs order-sensitive effects under map iteration,
// launches goroutines outside the internal/parallel pool, or lets a
// wall-clock reading reach a deterministic layer or a fingerprinted
// value; contexts reach everything that blocks, mutexes are never held
// across a blocking call nor acquired out of order, hot paths do not
// allocate, errors are not silently dropped, enum switches are
// exhaustive, and every wire type matches wire.lock; see DESIGN.md §12.
//
// See DESIGN.md for the design, one section per package: the simulator
// substitution and the measurement subsystem (DESIGN.md §7), the nn
// engine and the batched inference and training engines (DESIGN.md §5,
// §6), the pipelined round engine (DESIGN.md §8), the store and daemon
// (DESIGN.md §9), the enforced determinism contract (DESIGN.md §12) and
// the experiment map (DESIGN.md §13); EXPERIMENTS.md holds the
// paper-vs-measured record.
package pruner
