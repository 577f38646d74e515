package search

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pruner/internal/costmodel"
	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/schedule"
	"pruner/internal/simulator"
	"pruner/internal/workloads"
)

// evolveRef is evolve as it was before the candidate set doubled as the
// fitness's memo: every member of every generation is scored and charged.
func evolveRef(ctx *Context, p EvoParams, seed []*schedule.Schedule, f fitness, bound int) []scored {
	pop := make([]*schedule.Schedule, 0, p.Population)
	pop = append(pop, seed...)
	if len(pop) > p.Population {
		pop = pop[:p.Population]
	}
	pop = append(pop, ctx.Gen.InitPopulation(ctx.RNG, p.Population-len(pop))...)

	all := newSpecSet(p.Population)
	for gen := 0; gen < p.Generations; gen++ {
		scores := f.score(pop)
		f.charge(len(pop))
		cands := make([]scored, len(pop))
		for i := range pop {
			cands[i] = scored{sch: pop[i], score: scores[i]}
			all.add(cands[i])
		}
		if bound > 0 && len(all.list) > bound {
			pruneSpec(all, bound)
		}
		if gen == p.Generations-1 {
			break
		}
		pop = nextGeneration(ctx, p, cands)
	}
	return drainRanked(all)
}

// resnetConv is resnet50's heaviest convolution, the task the bench's
// online workloads tune first.
func resnetConv(tb testing.TB) *ir.Task {
	tb.Helper()
	net, err := workloads.ByName("resnet50")
	if err != nil {
		tb.Fatal(err)
	}
	return net.Representative(1)[0]
}

// TestEvolveScoresEachCandidateOnce runs evolve under the learned
// model's verify (TenSetMLP, as EvoPolicy does) and under the analyzer
// with PriorFilter (as RunLSE does), once as it is and once as evolveRef,
// from equal contexts. The ranked output and the simulated clock must be
// identical to the bit. Without PriorFilter every structurally distinct
// schedule is scored exactly once in the call; under it a schedule is
// scored again only after PriorFilter dropped it, and a dropped schedule
// never returns to S_spec. Either way no fitness call sees a schedule
// twice, and fewer schedules are scored than members charged.
func TestEvolveScoresEachCandidateOnce(t *testing.T) {
	task := resnetConv(t)
	lse := DefaultLSEParams()
	cases := []struct {
		name    string
		p       EvoParams
		bound   int
		fitness func(*Context) fitness
	}{
		{"ansor-tensetmlp", EvoParams{Population: 500, Generations: 4, MutateProb: 0.85, CrossProb: 0.05}, 0,
			func(ctx *Context) fitness {
				ctx.Model = costmodel.NewTenSetMLP(9)
				return ctx.verifyFitness()
			}},
		{"lse-analyzer", EvoParams{Population: lse.Population, Generations: lse.Steps, MutateProb: lse.MutateProb, CrossProb: lse.CrossProb}, lse.SpecSize,
			func(ctx *Context) fitness { return ctx.draftFitness() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(evo func(*Context, EvoParams, []*schedule.Schedule, fitness, int) []scored) ([]scored, *simulator.Clock, [][]*schedule.Schedule) {
				ctx := newCtx(task, device.A100, 31)
				ctx.Memo = schedule.NewMemo()
				ctx.Clock = &simulator.Clock{}
				f := tc.fitness(ctx)
				var calls [][]*schedule.Schedule
				counted := fitness{
					score: func(schs []*schedule.Schedule) []float64 {
						calls = append(calls, slices.Clone(schs))
						return f.score(schs)
					},
					charge: f.charge,
				}
				return evo(ctx, tc.p, nil, counted, tc.bound), ctx.Clock, calls
			}
			got, gotClock, calls := run(evolve)
			want, wantClock, _ := run(evolveRef)

			if len(got) != len(want) {
				t.Fatalf("ranked %d candidates, the reference %d", len(got), len(want))
			}
			for i := range want {
				if !got[i].sch.Same(want[i].sch) || math.Float64bits(got[i].score) != math.Float64bits(want[i].score) {
					t.Fatalf("rank %d: %s (score %v), the reference %s (score %v)",
						i, got[i].sch.Fingerprint(), got[i].score, want[i].sch.Fingerprint(), want[i].score)
				}
			}
			if g, w := math.Float64bits(gotClock.Exploration), math.Float64bits(wantClock.Exploration); g != w {
				t.Fatalf("Clock.Exploration %v (bits %x), the reference %v (bits %x)", gotClock.Exploration, g, wantClock.Exploration, w)
			}

			kept := schedule.NewSet(len(got))
			for _, c := range got {
				kept.Add(c.sch)
			}
			scored := schedule.NewSet(0)
			var rows, again int
			for gen, call := range calls {
				inCall := schedule.NewSet(len(call))
				for _, s := range call {
					if _, added := inCall.Add(s); !added {
						t.Fatalf("generation %d scores %s twice", gen, s.Fingerprint())
					}
					rows++
					if _, added := scored.Add(s); added {
						continue
					}
					again++
					if tc.bound == 0 {
						t.Fatalf("generation %d scores %s again", gen, s.Fingerprint())
					}
					if kept.Has(s) {
						t.Fatalf("generation %d scores %s again, and it is in S_spec: PriorFilter never dropped it", gen, s.Fingerprint())
					}
				}
			}
			members := tc.p.Population * tc.p.Generations
			if rows >= members {
				t.Fatalf("scored %d rows for %d members: nothing was reused", rows, members)
			}
			t.Logf("%d members, %d scored (%d after PriorFilter dropped them), %.1f%% reused",
				members, rows, again, 100*float64(members-rows)/float64(members))
		})
	}
}

// nanModel scores NaN for the candidates whose structural key is a
// multiple of four, and passes every other row through: a pure function
// of the candidate, as every learned model is.
type nanModel struct{ costmodel.Model }

func (m nanModel) Predict(t *ir.Task, schs []*schedule.Schedule) []float64 {
	out := m.Model.Predict(t, schs)
	for i, s := range schs {
		if s.Key()%4 == 0 {
			out[i] = math.NaN()
		}
	}
	return out
}

// TestNaNScoresRankTotally: a model may score a candidate NaN. An Ansor
// session whose model does so for a quarter of the candidates finishes
// its rounds with full, fresh batches; and byScore, with NaN after every
// other score, makes drainRanked's ranking the same list for any order
// of its input and rankStable the stable sort under the same comparator.
func TestNaNScoresRankTotally(t *testing.T) {
	task := ir.NewMatMul(256, 384, 512, ir.FP32, 1)
	ctx := newCtx(task, device.T4, 12)
	ctx.Model = nanModel{costmodel.NewTenSetMLP(4)}
	ctx.Memo = schedule.NewMemo()
	sim := simulator.New(device.T4)
	p := NewAnsorPolicy()
	p.Evo = EvoParams{Population: 240, Generations: 3, MutateProb: 0.85, CrossProb: 0.05}
	for round := 0; round < 4; round++ {
		batch := p.NextBatch(ctx, 10)
		if len(batch) != 10 {
			t.Fatalf("round %d: batch of %d, want 10", round, len(batch))
		}
		for _, s := range batch {
			if ctx.MeasuredSet[s.Fingerprint()] {
				t.Fatalf("round %d: %s proposed again", round, s.Fingerprint())
			}
			ctx.MeasuredSet[s.Fingerprint()] = true
			lat, err := sim.Latency(task, s)
			if err != nil {
				lat = math.Inf(1)
			}
			ctx.Measured = append(ctx.Measured, costmodel.Record{Task: task, Sched: s, Latency: lat})
		}
	}

	alphabet := []float64{math.NaN(), math.Float64frombits(0xfff8000000000000), -inf, negZero, 0, 1, 2, inf}
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(120)
		cands := make([]scored, n)
		for i := range cands {
			cands[i] = scored{
				sch: &schedule.Schedule{
					SpatialTiles: [][schedule.NumSpatialLevels]int{{1 + rng.Intn(1000), 1, 1, 1, 1}},
					UnrollStep:   i,
					VectorLen:    1,
				},
				score: alphabet[rng.Intn(len(alphabet))],
			}
		}
		drain := func(in []scored) []scored {
			spec := newSpecSet(len(in))
			for _, c := range in {
				spec.add(c)
			}
			return slices.Clone(drainRanked(spec))
		}
		want := drain(cands)
		for i := 1; i < len(want); i++ {
			if math.IsNaN(want[i-1].score) && !math.IsNaN(want[i].score) {
				t.Fatalf("trial %d: NaN ranked before %v", trial, want[i].score)
			}
		}
		for perm := 0; perm < 4; perm++ {
			shuffled := slices.Clone(cands)
			rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			for i, c := range drain(shuffled) {
				if c.sch != want[i].sch {
					t.Fatalf("trial %d, permutation %d: drainRanked[%d] differs", trial, perm, i)
				}
			}
		}

		ref := slices.Clone(cands)
		sort.SliceStable(ref, func(i, j int) bool { return byScore(ref[i], ref[j]) < 0 })
		got := slices.Clone(cands)
		rankStable(got)
		for i := range got {
			if got[i].sch != ref[i].sch {
				t.Fatalf("trial %d: rankStable[%d] differs from sort.SliceStable", trial, i)
			}
		}
	}
}

// countingModel counts the rows its model predicts.
type countingModel struct {
	costmodel.Model
	rows *int
}

func (m countingModel) Predict(t *ir.Task, schs []*schedule.Schedule) []float64 {
	*m.rows += len(schs)
	return m.Model.Predict(t, schs)
}

// BenchmarkEvoNextBatch times one Ansor round, the verify-bound search:
// NextBatch at the default 2000 × 4 on resnet50's heaviest convolution
// with TenSetMLP verifying, from an empty history. As in the tuner, the
// round memo is drawn per round, bound to the generator so the round's
// schedules are carved from it, set on the model so verify reads the
// draft's lowerings, and released when the round is done.
// predicted_rows/op is how many candidates the model scored of the 8000
// members charged.
func BenchmarkEvoNextBatch(b *testing.B) {
	task := resnetConv(b)
	model := costmodel.NewTenSetMLP(5)
	rows := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx := newCtx(task, device.A100, int64(i))
		ctx.Memo = schedule.NewMemo()
		ctx.Gen = ctx.Gen.WithMemo(ctx.Memo)
		model.SetMemo(ctx.Memo)
		ctx.Model = countingModel{model, &rows}
		if batch := NewAnsorPolicy().NextBatch(ctx, 10); len(batch) != 10 {
			b.Fatalf("batch of %d, want 10", len(batch))
		}
		model.SetMemo(nil)
		ctx.Memo.Release()
	}
	b.ReportMetric(float64(rows)/float64(b.N), "predicted_rows/op")
}
