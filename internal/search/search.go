// Package search implements the schedule-space exploration policies: the
// paper's Draft-then-Verify Pruner policy with its Latent Schedule
// Explorer (Algorithm 2), and the Ansor, MetaSchedule and Roller baseline
// policies it is evaluated against.
package search

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"

	"pruner/internal/analyzer"
	"pruner/internal/costmodel"
	"pruner/internal/ir"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
	"pruner/internal/simulator"
)

// Context is the per-task state a policy sees when proposing the next
// measurement batch.
type Context struct {
	// Ctx optionally bounds the search: policies check it between
	// generations/iterations and return early (with whatever they have)
	// when it is cancelled. The tuner discards a round whose search was
	// cut short, so cancellation can never alter committed results. nil
	// never cancels.
	Ctx  context.Context
	Task *ir.Task
	Gen  *schedule.Generator
	// RNG is the task-owned random stream. Policies must draw from it only
	// on their serial path (population breeding, ε-greedy picks) — never
	// from pool workers.
	RNG *rand.Rand
	// Pool fans pure candidate scoring (draft evaluations, screening)
	// across the session's workers (nil: the process pool).
	Pool *parallel.Pool
	// Measured is the task's tuning history (latest last).
	Measured []costmodel.Record
	// MeasuredSet holds fingerprints of measured schedules for dedup.
	MeasuredSet map[string]bool
	// Model is the learned (verify) cost model.
	Model costmodel.Model
	// AwaitModel, when non-nil, blocks until Model is ready to verify:
	// the tuner runs the previous round's online fit beside this round's
	// draft and joins it here. The draft stage never reads Model, so
	// policies reach Model only through verify, which calls this first.
	// nil means the model is ready.
	AwaitModel func()
	// Draft is the Symbol-based Analyzer used by draft-stage policies.
	Draft *analyzer.Analyzer
	// Clock and Cost account simulated exploration time. Clock may be nil
	// in unit tests.
	Clock *simulator.Clock
	Cost  simulator.CostParams
	// Memo caches this round's lowered programs so a candidate is lowered
	// (and featurized) exactly once across draft scoring and cost-model
	// verification. nil falls back to lowering on every use.
	Memo *schedule.Memo
	// DraftBudget, when positive, overrides the policy's own draft-stage
	// candidate budget (|S_spec| for the Pruner policy) for this round —
	// the tuner's adaptive controller shrinks or grows it with the cost
	// model's measured calibration. Policies without a draft stage
	// ignore it; 0 keeps the policy's configured budget.
	DraftBudget int
}

// cancelled reports whether the search's context has been cancelled.
func (c *Context) cancelled() bool {
	return c.Ctx != nil && c.Ctx.Err() != nil
}

// Verify scores candidates with the learned cost model, once it is ready,
// and charges them to the simulated clock: every policy's verify stage
// (the tuner's adaptive controller captures the dispatched batch's scores
// through it too).
func (c *Context) Verify(schs []*schedule.Schedule) []float64 {
	out := c.predict(schs)
	c.chargeVerify(len(schs))
	return out
}

// predict scores candidates with the learned cost model once it is ready,
// without charging them: the only call a tuning session makes to the
// model's Predict.
func (c *Context) predict(schs []*schedule.Schedule) []float64 {
	if c.AwaitModel != nil {
		c.AwaitModel()
	}
	return c.Model.Predict(c.Task, schs)
}

// chargeVerify charges n learned-model evaluations to the simulated clock.
func (c *Context) chargeVerify(n int) {
	if c.Clock != nil {
		mc := c.Model.Costs()
		c.Clock.Exploration += float64(n) * (c.Cost.FeatureExtract*mc.FeatureX + c.Cost.ModelInfer*mc.InferX)
	}
}

// scoreDraft evaluates the Symbol-based Analyzer over a candidate set and
// charges the batch to the simulated clock.
func (c *Context) scoreDraft(schs []*schedule.Schedule) []float64 {
	c.chargeDraft(len(schs))
	return c.draftScores(schs)
}

// draftScores evaluates the Symbol-based Analyzer over a candidate set,
// fanned across the session pool (the analyzer is a pure function of the
// lowered program), without charging it.
func (c *Context) draftScores(schs []*schedule.Schedule) []float64 {
	out := make([]float64, len(schs))
	c.Pool.ForEach(len(schs), func(i int) {
		out[i] = c.Draft.Score(c.Memo.Lower(c.Task, schs[i]))
	})
	return out
}

// chargeDraft charges n draft evaluations to the simulated clock.
func (c *Context) chargeDraft(n int) {
	if c.Clock != nil {
		c.Clock.Exploration += float64(n) * c.Cost.DraftEval
	}
}

// fitness is how evolve scores a generation: score evaluates candidates
// without charging them, and charge accounts n evaluations to the
// simulated clock, so evolve can charge every member while scoring each
// distinct candidate once.
type fitness struct {
	score  func([]*schedule.Schedule) []float64
	charge func(n int)
}

// verifyFitness is the learned cost model's verify as evolve's fitness.
func (c *Context) verifyFitness() fitness { return fitness{c.predict, c.chargeVerify} }

// draftFitness is the Symbol-based Analyzer as evolve's fitness.
func (c *Context) draftFitness() fitness { return fitness{c.draftScores, c.chargeDraft} }

// Policy proposes schedules to measure.
type Policy interface {
	Name() string
	// NextBatch returns up to n unmeasured schedules for the task.
	NextBatch(ctx *Context, n int) []*schedule.Schedule
}

// SpecBudgeter is optionally implemented by policies with an explicit
// draft-stage candidate budget (the Pruner policy's |S_spec|). The tuner
// reads it to learn the budget Context.DraftBudget scales against, so
// adaptive control adapts to a policy's configured size instead of
// assuming the paper default.
type SpecBudgeter interface {
	SpecBudget() int
}

// scored pairs a schedule with a policy-internal score (higher better).
type scored struct {
	sch   *schedule.Schedule
	score float64
}

// byScore orders higher scores first and leaves ties to the caller's
// tie-break. NaN ranks after every other score, −Inf included, and NaNs
// tie with each other, so it is a strict weak order on any scores; on
// scores without NaN it is negative exactly when the sort.SliceStable
// less the rankings replaced was true, so rankStable (ties in input
// order) yields that sort's permutation.
func byScore(a, b scored) int { return cmp.Compare(b.score, a.score) }

// specSet is a set of distinct scored candidates: each schedule appears
// once, up to structural equality, with the score it was first seen with.
// ids numbers the members in the order of list.
type specSet struct {
	ids  *schedule.Set
	list []scored
}

func newSpecSet(n int) *specSet {
	return &specSet{ids: schedule.NewSet(n), list: make([]scored, 0, n)}
}

// add inserts c unless its structural twin is a member, and returns the
// member's index and whether c was inserted. A twin keeps its score:
// every fitness evolve runs is a pure function of the candidate, so the
// twin's score is c's.
func (t *specSet) add(c scored) (int, bool) {
	i, added := t.ids.Add(c.sch)
	if added {
		t.list = append(t.list, c)
	}
	return i, added
}

// bestFirst is the ranking order of a candidate set: higher score first,
// ties broken by ascending fingerprint (compared without building the
// strings). That is a total order over the set's distinct schedules.
func bestFirst(a, b scored) int {
	if c := byScore(a, b); c != 0 {
		return c
	}
	return schedule.CompareFingerprints(a.sch, b.sch)
}

// drainRanked ranks a candidate set's entries in place under bestFirst
// and returns them. The order is total, so the result depends on neither
// the order entries were added in nor the sort's stability, and the
// cheaper unstable sort yields it.
func drainRanked(t *specSet) []scored {
	slices.SortFunc(t.list, bestFirst)
	return t.list
}

// pickBatch selects n unmeasured, deduplicated schedules that fit the
// generator's launch budget (Generator.Fits: threads per block and the
// ceil-rounded shared words, the validity pre-filter Ansor applies before
// handing candidates to the builder) from ranked candidates, filling an
// epsFrac share with random exploration, the ε-greedy step all policies
// end with.
func pickBatch(ctx *Context, ranked []scored, n int, epsFrac float64) []*schedule.Schedule {
	out := make([]*schedule.Schedule, 0, n)
	seen := schedule.NewSet(n)
	nRandom := int(math.Round(float64(n) * epsFrac))
	admit := func(s *schedule.Schedule) {
		if seen.Has(s) || ctx.MeasuredSet[s.Fingerprint()] || !ctx.Gen.Fits(s) {
			return
		}
		seen.Add(s)
		out = append(out, s)
	}
	for _, c := range ranked {
		if len(out) >= n-nRandom {
			break
		}
		admit(c.sch)
	}
	for tries := 0; len(out) < n && tries < n*16; tries++ {
		admit(ctx.Gen.Random(ctx.RNG))
	}
	return out
}

// bestMeasured returns up to k best-latency schedules from the task
// history to seed evolutionary populations.
func bestMeasured(ctx *Context, k int) []*schedule.Schedule {
	recs := make([]costmodel.Record, 0, len(ctx.Measured))
	for _, r := range ctx.Measured {
		if !math.IsInf(r.Latency, 1) && r.Latency > 0 {
			recs = append(recs, r)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Latency < recs[j].Latency })
	if len(recs) > k {
		recs = recs[:k]
	}
	out := make([]*schedule.Schedule, len(recs))
	for i, r := range recs {
		out[i] = r.Sched
	}
	return out
}

// EvoParams parameterise the shared evolutionary loop.
type EvoParams struct {
	Population  int
	Generations int
	MutateProb  float64
	CrossProb   float64
}

// DefaultEvoParams mirrors Ansor's evolutionary-search defaults scaled to
// the paper's ~8,000 model evaluations per tuning round.
func DefaultEvoParams() EvoParams {
	return EvoParams{Population: 2000, Generations: 4, MutateProb: 0.85, CrossProb: 0.05}
}

// evolve runs a GA under the given fitness — the learned cost model's
// verify, or the draft analyzer for the LSE — and returns every scored
// candidate seen, deduplicated, ranked descending. A positive bound is
// PriorFilter: after every generation only the bound best candidates are
// kept.
//
// The candidate set is also the fitness's memo: a member already in it
// (or earlier in its own generation) takes the stored score, and only the
// new members, deduplicated, are scored. The fitness is a pure function
// of the candidate within one call, so that changes no score, and every
// member is still charged to the simulated clock, in one add per
// generation as before. Under PriorFilter a dropped candidate that comes
// back is scored again.
func evolve(ctx *Context, p EvoParams, seed []*schedule.Schedule, f fitness, bound int) []scored {
	pop := make([]*schedule.Schedule, 0, p.Population)
	pop = append(pop, seed...)
	if len(pop) > p.Population {
		pop = pop[:p.Population]
	}
	pop = append(pop, ctx.Gen.InitPopulation(ctx.RNG, p.Population-len(pop))...)

	// The set grows to one population past the bound under PriorFilter,
	// and to every generation's members without it.
	size := p.Population * p.Generations
	if bound > 0 {
		size = min(size, bound+p.Population)
	}
	all := newSpecSet(size)
	at := make([]int, 0, p.Population)                   // each member's index in all
	fresh := make([]*schedule.Schedule, 0, p.Population) // the members new to all
	cands := make([]scored, 0, p.Population)
	var b breeder
	for gen := 0; gen < p.Generations; gen++ {
		if ctx.cancelled() {
			break // the tuner discards rounds whose search was cut short
		}
		at, fresh, cands = at[:0], fresh[:0], cands[:0]
		base := len(all.list)
		for _, s := range pop {
			i, added := all.add(scored{sch: s})
			if added {
				fresh = append(fresh, s)
			}
			at = append(at, i)
		}
		if len(fresh) > 0 {
			for k, sc := range f.score(fresh) {
				all.list[base+k].score = sc
			}
		}
		f.charge(len(pop))
		for i, s := range pop {
			cands = append(cands, scored{sch: s, score: all.list[at[i]].score})
		}
		if bound > 0 && len(all.list) > bound {
			pruneSpec(all, bound)
		}
		if gen == p.Generations-1 {
			break
		}
		// cands holds every member, so the next generation can take pop's
		// storage.
		pop = b.breed(ctx, p, cands, pop[:0])
	}
	return drainRanked(all)
}

// pruneSpec is PriorFilter: it trims a candidate set to its k best
// entries in place. It selects them rather than ranking the set: which k
// are best under bestFirst, a total order, does not depend on how they
// are arranged, and only evolve's final drainRanked orders them.
func pruneSpec(spec *specSet, k int) {
	selectBest(spec.list, k)
	kept := spec.list[:k]
	spec.ids.Reset()
	for _, c := range kept {
		spec.ids.Add(c.sch)
	}
	spec.list = kept
}

// selectBest moves the k best entries of list under bestFirst to its
// front, in no particular order: a quickselect (median-of-three pivot,
// Lomuto partition), whose expected comparisons grow linearly with
// len(list) where a sort's grow as len(list)·log₂len(list). The entries
// must be distinct schedules, as a specSet's are.
func selectBest(list []scored, k int) {
	lo, hi := 0, len(list) // list[:lo] are among the k best, list[hi:] not
	for lo < k && k < hi && hi-lo > 1 {
		m, last := lo+(hi-lo)/2, hi-1
		if bestFirst(list[m], list[lo]) < 0 {
			list[m], list[lo] = list[lo], list[m]
		}
		if bestFirst(list[last], list[m]) < 0 {
			list[last], list[m] = list[m], list[last]
			if bestFirst(list[m], list[lo]) < 0 {
				list[m], list[lo] = list[lo], list[m]
			}
		}
		// The median of the three is the pivot; park it at the end.
		list[m], list[last] = list[last], list[m]
		pivot, p := list[last], lo
		for i := lo; i < last; i++ {
			if bestFirst(list[i], pivot) < 0 {
				list[i], list[p] = list[p], list[i]
				p++
			}
		}
		list[p], list[last] = list[last], list[p]
		// Now list[lo:p] beat the pivot at list[p], which beats list[p+1:hi].
		if k <= p {
			hi = p
		} else {
			lo = p + 1
		}
	}
}

// nextGeneration breeds a new population with fitness-proportional parent
// selection (softmax over ranks) plus mutation and crossover.
func nextGeneration(ctx *Context, p EvoParams, cands []scored) []*schedule.Schedule {
	var b breeder
	return b.breed(ctx, p, cands, make([]*schedule.Schedule, 0, p.Population))
}

// breeder is nextGeneration's storage, which evolve keeps from one
// generation to the next: the rank sampler, which depends only on the
// population size, and rankStable's buffer.
type breeder struct {
	ranks rankSampler
	order []indexed
}

// breed is nextGeneration, appending the new population to next. It ranks
// cands in place.
func (b *breeder) breed(ctx *Context, p EvoParams, cands []scored, next []*schedule.Schedule) []*schedule.Schedule {
	b.rank(cands)
	if len(b.ranks.prefix) != len(cands) {
		b.ranks = newRankSampler(len(cands))
	}
	sample := func() *schedule.Schedule {
		return cands[b.ranks.pick(ctx.RNG.Float64()*b.ranks.sum())].sch
	}
	// Elitism: carry the top 5%.
	elite := len(cands) / 20
	for i := 0; i < elite && i < len(cands); i++ {
		next = append(next, cands[i].sch)
	}
	for len(next) < p.Population {
		switch r := ctx.RNG.Float64(); {
		case r < p.CrossProb:
			next = append(next, ctx.Gen.Crossover(ctx.RNG, sample(), sample()))
		case r < p.CrossProb+p.MutateProb:
			next = append(next, ctx.Gen.Mutate(ctx.RNG, sample()))
		default:
			next = append(next, ctx.Gen.Random(ctx.RNG))
		}
	}
	return next
}

// rankStable sorts cands best first, ties in input order: the stable
// sort's permutation, from the cheaper unstable sort over (score, input
// index), a total order.
func rankStable(cands []scored) {
	var b breeder
	b.rank(cands)
}

// indexed is a candidate with its input position, rankStable's sort key.
type indexed struct {
	scored
	at int
}

// rank is rankStable over the breeder's buffer.
func (b *breeder) rank(cands []scored) {
	order := b.order[:0]
	for i, c := range cands {
		order = append(order, indexed{c, i})
	}
	slices.SortFunc(order, func(a, b indexed) int {
		if c := byScore(a.scored, b.scored); c != 0 {
			return c
		}
		return cmp.Compare(a.at, b.at)
	})
	for i := range order {
		cands[i] = order[i].scored
	}
	b.order = order
}

// rankSampler draws rank i of n with probability proportional to
// wᵢ = 1/√(i+1). prefix[i] is w₀ + … + wᵢ summed left to right, so
// prefix[n-1] is the total a draw r is scaled by.
//
// The reference draw is a sequential walk — subtract w₀, w₁, … from r and
// stop at the first i where the remainder is ≤ 0 (the last rank if none
// is) — and every later RNG draw of a session depends on its pick, so
// pick must return the same index, not merely one equally likely. A
// binary search for the first prefix[i] ≥ r is exact wherever the
// rounding of both procedures cannot reach the decision, and pick falls
// back to the walk where it can. With u = 2⁻⁵³, S = prefix[n-1] and Pᵢ
// the exact sum w₀ + … + wᵢ:
//
//   - prefix[i] is i rounded additions of positive terms, each erring by
//     at most u times a partial sum ≤ S, so |prefix[i] − Pᵢ| ≤ i·u·S;
//   - the walk's remainder after wᵢ is i+1 rounded subtractions, each
//     erring by at most u times a remainder of magnitude ≤ S, so it is
//     within (i+1)·u·S of r − Pᵢ.
//
// Both tests therefore agree with the exact r ≤ Pᵢ whenever |r − Pᵢ| >
// (n+1)·u·S, which holds when |r − prefix[i]| > (2n+1)·u·S. The band
// 4·(n+2)·2⁻⁵²·S = 8·(n+2)·u·S covers that with room for the (second
// order) growth of the partial sums past S and the rounding of r −
// prefix[i] itself. Rounded addition of a positive weight never
// decreases a sum, so prefix is non-decreasing: a draw that clears the
// band at both neighbours prefix[i−1] < r ≤ prefix[i] clears it at every
// prefix, and the walk stops at i too. TestSampleMatchesSequentialScan
// checks the picks against the walk at and around every boundary.
type rankSampler struct {
	prefix []float64
}

func newRankSampler(n int) rankSampler {
	prefix := make([]float64, n)
	var sum float64
	for i := range prefix {
		sum += 1 / math.Sqrt(float64(i+1))
		prefix[i] = sum
	}
	return rankSampler{prefix: prefix}
}

// sum is the total weight, the scale of a draw.
func (s rankSampler) sum() float64 { return s.prefix[len(s.prefix)-1] }

// pick returns the rank the sequential walk picks for r in [0, sum()].
func (s rankSampler) pick(r float64) int {
	p := s.prefix
	n := len(p)
	i, _ := slices.BinarySearch(p, r)
	band := float64(4*(n+2)) * 0x1p-52 * p[n-1]
	below := 0.0
	if i > 0 {
		below = p[i-1]
	}
	if i == n || p[i]-r <= band || r-below <= band {
		return walkRanks(r, n)
	}
	return i
}

// walkRanks is the sequential draw pick answers for: it subtracts the
// weights from r in rank order and stops where the remainder reaches 0.
func walkRanks(r float64, n int) int {
	for i := 0; i < n; i++ {
		r -= 1 / math.Sqrt(float64(i+1))
		if r <= 0 {
			return i
		}
	}
	return n - 1
}
