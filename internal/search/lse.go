package search

import "pruner/internal/schedule"

// LSEParams configure the Latent Schedule Explorer (Algorithm 2).
type LSEParams struct {
	// SpecSize is |S_spec|, the drafted candidate budget (paper: 512).
	SpecSize int
	// Population is |S_x|, the GA population per step.
	Population int
	// Steps is nSteps, the number of GA iterations.
	Steps int
	// MutateProb / CrossProb drive SchMutation.
	MutateProb float64
	CrossProb  float64
}

// DefaultLSEParams are the paper's settings: S_spec = 512, with a GA
// exploring the same ~8,000 candidates per round Ansor's evolution sees —
// affordable precisely because each draft evaluation costs a fraction of
// a learned-model inference.
func DefaultLSEParams() LSEParams {
	return LSEParams{SpecSize: 512, Population: 1600, Steps: 5, MutateProb: 0.85, CrossProb: 0.05}
}

// withDefaults fills unset (zero) fields independently. The earlier
// all-or-nothing rule — defaults only when SpecSize was zero — meant a
// caller who set SpecSize but left Steps or Population zero silently got
// an empty draft set. Zero therefore always means "use the default"; a
// probability of exactly zero is not representable (use a negligible
// positive value instead).
func (p LSEParams) withDefaults() LSEParams {
	def := DefaultLSEParams()
	if p.SpecSize <= 0 {
		p.SpecSize = def.SpecSize
	}
	if p.Population <= 0 {
		p.Population = def.Population
	}
	if p.Steps <= 0 {
		p.Steps = def.Steps
	}
	if p.MutateProb <= 0 {
		p.MutateProb = def.MutateProb
	}
	if p.CrossProb <= 0 {
		p.CrossProb = def.CrossProb
	}
	return p
}

// RunLSE is Algorithm 2: a GA over the schedule space whose fitness is the
// Symbol-based Analyzer's hardware-fitness score, accumulating the best
// candidates seen into S_spec via PriorFilter. It never touches a learned
// model; the caller charges only draft-evaluation time.
//
// As in TVM's evolutionary search, the initial population is seeded with
// the task's best measured schedules so later rounds refine around proven
// programs instead of re-deriving the draft model's optimum from scratch.
func RunLSE(ctx *Context, p LSEParams) []*schedule.Schedule {
	if ctx.Draft == nil {
		panic("search: RunLSE requires a draft analyzer")
	}
	p = p.withDefaults()
	// S_x starts from the best measured schedules; S_spec is the set
	// evolve keeps under the PriorFilter bound.
	evo := EvoParams{Population: p.Population, Generations: p.Steps, MutateProb: p.MutateProb, CrossProb: p.CrossProb}
	spec := evolve(ctx, evo, bestMeasured(ctx, p.Population/8), ctx.draftFitness(), p.SpecSize)
	schs := make([]*schedule.Schedule, len(spec))
	for i, c := range spec {
		schs[i] = c.sch
	}
	return schs
}
