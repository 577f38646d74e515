package tuner

import (
	"pruner/internal/costmodel"
	"pruner/internal/search"
)

// Method names a tuning approach of the paper's comparison. Package
// pruner re-exports the type and its constants, with their documentation.
type Method string

// The tuning methods.
const (
	MethodPruner        Method = "pruner"
	MethodMoAPruner     Method = "moa-pruner"
	MethodAnsor         Method = "ansor"
	MethodTenSetMLP     Method = "tensetmlp"
	MethodTLP           Method = "tlp"
	MethodPrunerOffline Method = "pruner-offline"
	MethodMetaSchedule  Method = "metaschedule"
	MethodRoller        Method = "roller"
)

// Def is one row of the paper's method comparison: the search that
// drafts, the cost model that verifies, and how that model learns.
type Def struct {
	Policy func() search.Policy
	// Kind is the cost model, as costmodel.New builds it; "" is Roller's
	// random ranker, the one model that does not learn.
	Kind   string
	Online bool // trains on the session's own measurements
	// Adapt is how pretrained weights enter the session. Every adaptation
	// but AdaptNone needs pretrained weights of the model's kind.
	Adapt Adaptation
}

// Define is the one place a Method is defined: the facade's Tune and its
// pretrained-weight checks, and the experiment harness, all read it. The
// switch has no default clause, so the exhaust analyzer fails the lint
// when a Method constant has no case. The empty Method selects
// MethodPruner; ok is false for any other name that is not a Method.
func Define(m Method) (d Def, ok bool) {
	lse := func() search.Policy { return search.NewPrunerPolicy() }
	evo := func() search.Policy { return search.NewAnsorPolicy() }
	if m == "" {
		m = MethodPruner
	}
	switch m {
	case MethodPruner:
		return Def{lse, "pacm", true, AdaptNone}, true
	case MethodMoAPruner:
		return Def{lse, "pacm", true, AdaptMoA}, true
	case MethodAnsor:
		return Def{evo, "tensetmlp", true, AdaptNone}, true
	case MethodTenSetMLP:
		return Def{evo, "tensetmlp", false, AdaptFineTune}, true
	case MethodTLP:
		return Def{evo, "tlp", false, AdaptFineTune}, true
	case MethodPrunerOffline:
		return Def{lse, "pacm", false, AdaptFineTune}, true
	case MethodMetaSchedule:
		return Def{func() search.Policy { return search.NewMetaSchedulePolicy() }, "tensetmlp", true, AdaptNone}, true
	case MethodRoller:
		return Def{func() search.Policy { return search.NewRollerPolicy() }, "", false, AdaptNone}, true
	}
	return Def{}, false
}

// Options starts a session of the method: a fresh policy, a fresh model
// initialised from seed+1, the method's online training and adaptation,
// and seed. The caller adds the budget, the pretrained weights its
// adaptation needs and everything else.
func (d Def) Options(seed int64) Options {
	model, _ := costmodel.New(d.Kind, seed+1) // every learned kind in Define is known
	if d.Kind == "" {
		model = costmodel.NewRandom(seed + 1)
	}
	return Options{Policy: d.Policy(), Model: model, OnlineTrain: d.Online, Adaptation: d.Adapt, Seed: seed}
}
