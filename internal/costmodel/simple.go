package costmodel

import (
	"math/rand"

	"pruner/internal/ir"
	"pruner/internal/nn"
	"pruner/internal/schedule"
)

// Random scores candidates uniformly at random: the no-cost-model control
// used by the Best-k experiments' random GA.
type Random struct {
	rng *rand.Rand
}

// NewRandom builds the control model.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Model.
func (r *Random) Name() string { return "random" }

// Predict implements Model.
func (r *Random) Predict(_ *ir.Task, schs []*schedule.Schedule) []float64 {
	out := make([]float64, len(schs))
	for i := range out {
		out[i] = r.rng.Float64()
	}
	return out
}

// Fit implements Model (no-op).
func (r *Random) Fit([]Record, FitOptions) FitReport { return FitReport{} }

// Params implements Model.
func (r *Random) Params() []*nn.Tensor { return nil }

// Costs implements Model.
func (r *Random) Costs() Costs { return Costs{} }
