package search

import (
	"pruner/internal/device"
	"pruner/internal/schedule"
)

// EvoPolicy is the evolutionary baseline exploration mechanism:
// evolutionary search whose fitness is the learned cost model, applied
// to every explored candidate — the expensive pattern Table 1
// quantifies. Ansor and MetaSchedule are this one policy under their own
// settings: build it with NewAnsorPolicy or NewMetaSchedulePolicy, which
// set its name and seed share.
type EvoPolicy struct {
	name string
	// seedShare seeds each round's population with the task's
	// Evo.Population/seedShare best measured schedules.
	seedShare int
	Evo       EvoParams
	Eps       float64 // ε-greedy random share of each measured batch
}

// NewAnsorPolicy returns the policy with Ansor defaults.
func NewAnsorPolicy() *EvoPolicy {
	return &EvoPolicy{name: "ansor", Evo: DefaultEvoParams(), Eps: 0.10, seedShare: 16}
}

// NewMetaSchedulePolicy returns the policy modelling TVM MetaSchedule:
// evolutionary search with a learned model over TensorCore-capable
// sketches, with a larger random exploration share and a smaller
// measured seed than Ansor.
func NewMetaSchedulePolicy() *EvoPolicy {
	return &EvoPolicy{
		name:      "metaschedule",
		Evo:       EvoParams{Population: 2048, Generations: 4, MutateProb: 0.80, CrossProb: 0.05},
		Eps:       0.15,
		seedShare: 32,
	}
}

// Name implements Policy.
func (p *EvoPolicy) Name() string { return p.name }

// NextBatch implements Policy.
func (p *EvoPolicy) NextBatch(ctx *Context, n int) []*schedule.Schedule {
	ranked := evolve(ctx, p.Evo, bestMeasured(ctx, p.Evo.Population/p.seedShare), ctx.verifyFitness(), 0)
	return pickBatch(ctx, ranked, n, p.Eps)
}

// PrunerPolicy is the paper's Draft-then-Verify mechanism: the Latent
// Schedule Explorer drafts S_spec with the Symbol-based Analyzer, a small
// random sample keeps exploration honest (Algorithm 1 line 10), and the
// learned cost model verifies only the drafted set.
type PrunerPolicy struct {
	LSE LSEParams
	// RandomDraft is the size of the random sample unioned with S_spec.
	RandomDraft int
	// ExploitDraft adds mutations of the task's best measured schedules to
	// the draft set (Ansor's evolutionary exploitation, which the paper's
	// search framework inherits); the learned model verifies them like any
	// other draft.
	ExploitDraft int
	Eps          float64
}

// NewPrunerPolicy returns the policy with the paper's settings
// (S_spec = 512).
func NewPrunerPolicy() *PrunerPolicy {
	return &PrunerPolicy{LSE: DefaultLSEParams(), RandomDraft: 128, ExploitDraft: 64, Eps: 0.10}
}

// Name implements Policy.
func (p *PrunerPolicy) Name() string { return "pruner" }

// SpecBudget implements SpecBudgeter: the configured |S_spec| after
// defaulting, the base the tuner's adaptive controller scales.
func (p *PrunerPolicy) SpecBudget() int { return p.LSE.withDefaults().SpecSize }

// NextBatch implements Policy.
func (p *PrunerPolicy) NextBatch(ctx *Context, n int) []*schedule.Schedule {
	// Draft. Context.DraftBudget overrides |S_spec| alone — the random
	// and exploit draft shares stay fixed, so scaling the budget resizes
	// the speculative set, not the exploration floor.
	lse := p.LSE
	if ctx.DraftBudget > 0 {
		lse = lse.withDefaults()
		lse.SpecSize = ctx.DraftBudget
	}
	spec := RunLSE(ctx, lse)
	draft := make([]*schedule.Schedule, 0, len(spec)+p.RandomDraft+p.ExploitDraft)
	seen := schedule.NewSet(cap(draft))
	for _, s := range spec {
		seen.Add(s)
		draft = append(draft, s)
	}
	for _, s := range ctx.Gen.InitPopulation(ctx.RNG, p.RandomDraft) {
		if _, added := seen.Add(s); added {
			draft = append(draft, s)
		}
	}
	if p.ExploitDraft > 0 {
		elites := bestMeasured(ctx, 8)
		for i := 0; len(elites) > 0 && i < p.ExploitDraft; i++ {
			s := ctx.Gen.Mutate(ctx.RNG, elites[i%len(elites)])
			if _, added := seen.Add(s); added {
				draft = append(draft, s)
			}
		}
	}
	scores := ctx.Verify(draft)
	ranked := make([]scored, len(draft))
	for i := range draft {
		ranked[i] = scored{sch: draft[i], score: scores[i]}
	}
	rankStable(ranked)
	return pickBatch(ctx, ranked, n, p.Eps)
}

// RollerPolicy models the rule-based Roller compiler: it only considers
// hardware-aligned candidates (full warps, power-of-two register tiles,
// transaction-aligned innermost runs) ranked by the analytical model, with
// no learned component. Fast, but it discards solutions outside its rules
// — the behaviour Table 6 shows.
type RollerPolicy struct {
	// CandidatePool is how many random candidates are screened per batch.
	CandidatePool int
}

// NewRollerPolicy returns the policy with its default screening pool.
func NewRollerPolicy() *RollerPolicy { return &RollerPolicy{CandidatePool: 3000} }

// Name implements Policy.
func (p *RollerPolicy) Name() string { return "roller" }

// NextBatch implements Policy.
func (p *RollerPolicy) NextBatch(ctx *Context, n int) []*schedule.Schedule {
	if ctx.Draft == nil {
		panic("search: RollerPolicy requires a draft analyzer")
	}
	// Screen the pool concurrently; alignment filtering and ranking stay
	// on the serial path so the batch is order-stable.
	pool := ctx.Gen.InitPopulation(ctx.RNG, p.CandidatePool)
	scores := ctx.scoreDraft(pool)
	var ranked []scored
	for i, s := range pool {
		if !rollerAligned(ctx.Draft.Dev, s) {
			continue
		}
		ranked = append(ranked, scored{sch: s, score: scores[i]})
	}
	rankStable(ranked)
	return pickBatch(ctx, ranked, n, 0)
}

// rollerAligned enforces Roller's rTile alignment rules against the
// target device: full warps only, within the device's thread-per-block
// cap (previously hardcoded to 1024, which over-admitted schedules on
// presets with a smaller cap).
func rollerAligned(dev *device.Device, s *schedule.Schedule) bool {
	threads := s.ThreadsPerBlock()
	if threads%dev.WarpSize != 0 || threads > dev.MaxThreads {
		return false
	}
	for d := range s.SpatialTiles {
		if !powerOfTwoOrOne(s.RegTile(d)) {
			return false
		}
	}
	for d := range s.ReduceTiles {
		if !powerOfTwoOrOne(s.ReduceInner(d)) {
			return false
		}
	}
	return true
}

func powerOfTwoOrOne(x int) bool { return x > 0 && x&(x-1) == 0 }
