# Developer entry points; CI (.github/workflows/ci.yml) runs the same
# targets. The repo is stdlib-only — no dependencies to fetch; even the
# twelve determinism/concurrency/wire contract analyzers (`make lint`,
# cmd/pruner-vet) are built on go/ast + go/types alone: one pass over
# the loaded module, with a whole-module call graph and def-use
# dataflow summaries built on demand. hotalloc's static verdict has a
# measured twin, the TestAlloc* AllocsPerRun tests run by bench-smoke.

GO ?= go

.PHONY: all build vet lint lint-cover wire-check wire-lock test purego race serve serve-e2e serve-lifecycle memo-lifecycle measure-e2e cli-smoke profile bench bench-smoke bench-parallel ledger ledger-compare fuzz-smoke loc clean

all: vet lint build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The determinism, concurrency & wire contract: pruner-vet runs all
# twelve internal/lint analyzers (clocktaint, ctxflow, errdrop, exhaust,
# globalrand, hotalloc, lockheld, lockorder, maprange, rawgo, walltime,
# wireshape) over the whole module and fails on any unwaived
# diagnostic, malformed directive, or unused //pruner:allow
# suppression; additive wire.lock drift is printed as a notice and does
# not fail. See DESIGN.md §12; `pruner-vet -json` emits the same
# diagnostics (suppressed included) machine-readably.
lint:
	$(GO) build ./cmd/pruner-vet ./internal/lint
	$(GO) run ./cmd/pruner-vet ./...

# The wire contract alone: fails on any schema drift between the live
# encoder-reachable types and the checked-in wire.lock. Breaking drift
# (removed/renamed fields, wire-name or type changes) must be landed
# deliberately via `make wire-lock`; additive drift is a notice until
# the lock is regenerated. See API.md "Wire compatibility".
wire-check:
	$(GO) run ./cmd/pruner-vet -checks wireshape ./...

# Regenerate wire.lock from the live wire schema after a reviewed
# schema change.
wire-lock:
	$(GO) run ./cmd/pruner-vet -write-wire ./...

# Coverage gate for the analyzers themselves: internal/lint must keep
# total statement coverage at or above the floor, so new analyzers land
# with fixtures instead of silently untested paths.
LINT_COVER_FLOOR := 80
lint-cover:
	$(GO) test -coverprofile=lint.cover ./internal/lint
	@$(GO) tool cover -func=lint.cover | awk -v floor=$(LINT_COVER_FLOOR) \
		'/^total:/ { sub(/%/, "", $$3); if ($$3+0 < floor) { printf "internal/lint coverage %.1f%% is below the %d%% floor\n", $$3, floor; exit 1 } \
		else printf "internal/lint coverage %.1f%% (floor %d%%)\n", $$3, floor }'

test:
	$(GO) test ./...

# The Go GEMM strip (internal/nn/gemm.go) is the only kernel on arm64 or
# a pre-AVX2 host; an amd64 build takes an assembly one (AVX-512 or
# AVX2), so the fallback is tested by building it out: the nn and
# cost-model suites and the pinned sessions (golden fingerprint
# cfe0bde7d409aa97, golden matrix, every facade method's session, the
# three offline ones included, and every experiment-harness method's
# session, TestHarnessSessionsPinned) must hold on it too.
purego:
	$(GO) test -tags purego ./internal/nn ./internal/costmodel
	$(GO) test -tags purego -run 'TestTunePipelineDepth1MatchesPreRefactorGolden|TestTunePipelineGoldenMatrix' ./internal/tuner
	$(GO) test -tags purego -run '^TestMethodSessionsPinned$$' .
	$(GO) test -tags purego -run '^TestHarnessSessionsPinned$$' ./internal/experiments

# Every internal package under the race detector (slow but the strongest
# check that scoring/measurement fan-out stays data-race-free). The list
# is the ./internal/... pattern itself, so a newly added package cannot
# be forgotten the way a hardcoded list could.
race:
	$(GO) test -race ./internal/...

# Run the tuning daemon locally (see API.md for the endpoints).
serve:
	$(GO) run ./cmd/pruner-serve -addr :8149 -store pruner-store

# The daemon's end-to-end suite (submit -> SSE -> cache hit) under -race.
serve-e2e:
	$(GO) test -race -v ./internal/server/... ./internal/store/...

# The daemon's job lifecycle under -race, three times over: DELETE of a
# queued and of a running job, shutdown mid-session, the admission edges
# (full queue, drained daemon) and a panicking job, so a cancellation
# race shows as its own failure.
serve-lifecycle:
	$(GO) test -race -count=3 -v -run 'TestServerCancel|TestServerShutdown|TestServerAdmission|TestJobPanic' ./internal/server/...

# The memo life cycle under -race, three times over: a round on a
# released memo against heap lowerings, release twice and lowering after
# release, another task on a released memo, concurrent Lower and Rows,
# schedules carved by a bound generator zeroed by a poisoned release
# (TestMemoSchedulesReleased) and matching the heap generator's
# (TestMemoGeneratorMatchesHeap),
# a fit handing its replicas one lowering per record and leaving the same
# weights with its released memos poisoned, and whole sessions (golden,
# golden matrix, adaptive, cancelled mid-measurement) with parked memos
# poisoned. plan, each fit and each in-process measurement draw a memo
# of their own and release it on return, so a read after the release
# fails by name or moves a fingerprint.
memo-lifecycle:
	$(GO) test -race -count=3 -v -run '^TestMemo' ./internal/schedule
	$(GO) test -race -count=3 -v -run '^(TestFitLowersEachRecordOnce|TestFitReleasedMemoPoisoned)$$' ./internal/costmodel
	$(GO) test -race -count=3 -v -run '^TestRoundMemoPoisonedSessions$$' ./internal/tuner

# The measurement-fleet end-to-end suite under -race: pruner-serve with a
# loopback pruner-measure worker (register -> submit -> fleet-measured
# result byte-identical to the simulator), plus the wire-fidelity,
# worker-cancellation and pipeline determinism contracts, plus the
# mid-session /metrics scrape of daemon AND worker (TestMetrics*:
# exposition validated with the strict stdlib parser, failing on empty
# or malformed output), plus the pool's
# lend protocol, its hand-back of a helper's panic to the caller and the
# online fit running beside the draft (TestPoolGo, TestPoolPanic*,
# TestFitOverlapsDraft), plus the worker's request-body bound
# (TestWorkerBodyBound: 413 one byte over it).
measure-e2e:
	$(GO) test -race -v -run 'TestFleet|TestMeasurer|TestWorkerFleetMatchesSimulator|TestWorkerCancelledRequest|TestWorkerBodyBound|TestTunePipeline|TestMetrics|TestObservability|TestPoolGo|TestPoolPanic|TestFitOverlap' \
		./internal/server/... ./internal/measure/... ./internal/tuner/... ./internal/parallel/...
	$(GO) test -race ./internal/obs/...

# The CLIs end to end. pruner-tune: two workloads tuned side by side on
# the one pool -parallelism sizes must print the same curves and log the
# same records at 1 worker and at 3, -pipeline-depth math.MaxInt (a
# window past the round count) must run to completion, and a session
# whose only measurer is an unreachable loopback worker must exit 1 with
# the backend's error on stderr. pruner-bench -all:
# every experiment fanned out on that pool, each run with a fresh weights
# cache, must print the same tables at 1 worker and at 3 once the
# "[<id> done in <t>]" timing lines are dropped (~2.5 min on 2 vCPUs);
# at 3 workers experiments ask for shared datasets and pretrained
# weights concurrently, and each is still built once per run.
CLI_SMOKE_ARGS := -net resnet50,bert_tiny -trials 20 -max-tasks 1
cli-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o $$dir/pruner-tune ./cmd/pruner-tune && \
	$(GO) build -o $$dir/pruner-bench ./cmd/pruner-bench && \
	$$dir/pruner-tune $(CLI_SMOKE_ARGS) -parallelism 1 -log $$dir/p1.jsonl > $$dir/p1.out && \
	$$dir/pruner-tune $(CLI_SMOKE_ARGS) -parallelism 3 -log $$dir/p3.jsonl > $$dir/p3.out && \
	cmp $$dir/p1.out $$dir/p3.out && cmp $$dir/p1.jsonl $$dir/p3.jsonl && \
	$$dir/pruner-tune $(CLI_SMOKE_ARGS) -pipeline-depth 9223372036854775807 > /dev/null && \
	echo "cli-smoke: pruner-tune stdout and record logs identical at -parallelism 1 and 3" && \
	{ $$dir/pruner-tune -net bert_tiny -trials 10 -max-tasks 1 -measurers http://127.0.0.1:1 > /dev/null 2> $$dir/down.err; \
	  test $$? -eq 1; } && grep -q 'measurement backend failed' $$dir/down.err && \
	echo "cli-smoke: pruner-tune exits 1 and names the error when its measurer is down" && \
	$$dir/pruner-bench -all -parallelism 1 -cache $$dir/cache1 > $$dir/b1.raw && \
	$$dir/pruner-bench -all -parallelism 3 -cache $$dir/cache3 > $$dir/b3.raw && \
	sed '/^\[.* done in .*\]$$/d' $$dir/b1.raw > $$dir/b1.out && \
	sed '/^\[.* done in .*\]$$/d' $$dir/b3.raw > $$dir/b3.out && \
	cmp $$dir/b1.out $$dir/b3.out && \
	echo "cli-smoke: pruner-bench -all stdout identical at -parallelism 1 and 3"

# Profile a representative tuning session: CPU profile + span trace from
# one pruner-tune run, ready for `go tool pprof cpu.prof`.
profile:
	$(GO) test -run '^TestTunePipelineDepth1MatchesPreRefactorGolden$$' -cpuprofile cpu.prof ./internal/tuner/
	$(GO) run ./cmd/pruner-tune -net resnet50 -trials 40 -max-tasks 2 -trace-out trace.json
	@echo "wrote cpu.prof (go tool pprof cpu.prof) and trace.json"

# Regenerate the scaled evaluation (every paper table/figure).
bench:
	$(GO) test -bench=. -benchtime=1x -timeout=120m .

# CI's benchmark smoke: every internal benchmark once (incl. the
# draft-stage BenchmarkRunLSE, the verify-stage BenchmarkPredictBatched,
# the training-engine BenchmarkFit, the BenchmarkTunePipeline depth sweep
# and the fixed-vs-adaptive BenchmarkTuneAdaptive measured-candidate
# comparison) plus a bounded root subset.
# The first line is the allocation gate (DESIGN.md §3, §6): the TestAlloc*
# tests pin, via testing.AllocsPerRun, the warmed frozen forward's
# operators and the fused training backward (internal/nn), each learned
# model's frozen forward over one predict chunk and one whole training
# step on a warmed replica (internal/costmodel), the sampler's budget check
# Generator.Fits, the draft's schedule identity (Schedule.Key, Same and
# CompareFingerprints), a Memo hit on a schedule it already lowered, a
# warmed memo's whole round of lowering and featurizing and the draft
# model Analyzer.Score to 0 heap allocations per run, schedule.Lower
# to 1 and each feature family's first touch to 2 (internal/features) —
# the dynamic cross-check of the static hotalloc analyzer over the same
# //pruner:hotpath roots. TestAllocRandom and TestAllocMutate
# (internal/schedule) hold the generator to its results: Generator.Random
# to one schedule's objects however many draws it rejects, a Mutate that
# leaves its parent unchanged and a rejected Crossover to 0;
# TestAllocGenerateInMemo holds a generator bound to a warmed memo to 0
# for Random, a changing Mutate and a new Crossover (carved, not heap).
bench-smoke:
	$(GO) test -run='^TestAlloc' -count=1 ./internal/nn ./internal/costmodel ./internal/schedule ./internal/features ./internal/analyzer
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./internal/...
	$(GO) test -run='^$$' -bench='BenchmarkTuneParallel|BenchmarkAblation_SAvsOracle' -benchtime=1x -timeout=20m .

# Just the worker-count sweep of the root benchmarks.
bench-parallel:
	$(GO) test -bench=BenchmarkTuneParallel -benchtime=1x .

# The perf ledger (bench/README.md): a full result set of the four
# workloads, written to OUT and stamped with the current commit (~8 min).
# The default OUT sits outside bench/, whose committed ledgers are the
# baselines: a fresh one is checked in under bench/ledger/ deliberately.
OUT ?= ledger.json
ledger:
	$(GO) run ./bench -ledger $(OUT) -commit $$(git rev-parse --short HEAD)

# Verdict table between two ledgers; exits 1 on any "worse".
#   make ledger-compare OLD=bench/ledger/BENCH_12.json NEW=ledger.json
ledger-compare:
	$(GO) run ./bench -compare $(OLD) $(NEW)

# Short fuzz pass over the record codec (the store's segment format and
# the fleet's wire format), the store's torn-tail segment replay, the
# hand-editable wire.lock parser, every SIMD GEMM strip the host runs
# (AVX-512, AVX2) against the Go one, the rows op (rows copied whole,
# W's leading rows, all-zero columns) against Affine over the rows
# zero-extended to W's height, forward and W/b gradients bit for bit, and the schedule identity (Same
# is fingerprint equality, equal schedules share a Key, and
# CompareFingerprints orders as strings.Compare over the fingerprints).
# The seed corpora also run as plain tests under `make test`.
fuzz-smoke:
	$(GO) test ./internal/measure -run '^$$' -fuzz '^FuzzCodecRoundTrip$$' -fuzztime 10s
	$(GO) test ./internal/measure -run '^$$' -fuzz '^FuzzReadRecords$$' -fuzztime 10s
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzSegmentIndexTornTail$$' -fuzztime 10s
	$(GO) test ./internal/lint -run '^$$' -fuzz '^FuzzWireLockParse$$' -fuzztime 10s
	$(GO) test ./internal/nn -run '^$$' -fuzz '^FuzzGemmBlock$$' -fuzztime 10s
	$(GO) test ./internal/nn -run '^$$' -fuzz '^FuzzAffineRows$$' -fuzztime 10s
	$(GO) test ./internal/schedule -run '^$$' -fuzz '^FuzzScheduleKey$$' -fuzztime 10s

# Non-test Go and assembly (.s) lines outside bench/ and testdata, per
# package directory and in total: the size the simplicity changes are
# measured by.
loc:
	@find . \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' | sort | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; all += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", all }'

clean:
	$(GO) clean
	rm -rf .cache
	rm -f lint.cover
