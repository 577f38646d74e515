package tuner

import (
	"testing"

	"pruner/internal/costmodel"
	"pruner/internal/device"
	"pruner/internal/parallel"
	"pruner/internal/search"
)

// spyModel wraps a cost model and records every online Fit call. It
// deliberately exposes only the Model interface (no PoolUser/MemoUser),
// which the tuner must tolerate.
type spyModel struct {
	costmodel.Model
	reports []costmodel.FitReport
}

func (s *spyModel) Fit(recs []costmodel.Record, opt costmodel.FitOptions) costmodel.FitReport {
	rep := s.Model.Fit(recs, opt)
	s.reports = append(s.reports, rep)
	return rep
}

// TestTuneTrainingCostLinearInRounds pins the incremental-fit contract:
// each online fit sees at most the new batch plus the bounded replay
// sample, so per-session SampleVisits grows linearly with rounds — not
// quadratically, as the full-history refit this replaced did (training
// round r used to visit all r*batch records).
func TestTuneTrainingCostLinearInRounds(t *testing.T) {
	const (
		trials = 160
		batch  = 10
		epochs = 4
	)
	spy := &spyModel{Model: costmodel.NewPaCM(3)}
	Tune(device.T4, twoTasks(), Options{
		Trials:      trials,
		BatchSize:   batch,
		Policy:      search.NewPrunerPolicy(),
		Model:       spy,
		OnlineTrain: true,
		Fit:         costmodel.FitOptions{Epochs: epochs},
		Seed:        9,
		Pool:        parallel.New(1),
	})
	if len(spy.reports) < trials/batch/2 {
		t.Fatalf("too few online fits recorded: %d", len(spy.reports))
	}
	replay := 4 * batch // a non-MoA session's replay sample
	perFit := batch + replay
	var total int
	for i, rep := range spy.reports {
		if rep.Samples > perFit {
			t.Fatalf("fit %d saw %d samples, want <= batch+replay = %d (full-history refit is back?)",
				i, rep.Samples, perFit)
		}
		total += rep.SampleVisits
	}
	// The linear budget: every fit bounded by (batch+replay) x epochs.
	// The old quadratic refit would blow through this within a few
	// rounds (round r visited r*batch samples per epoch).
	if bound := len(spy.reports) * perFit * epochs; total > bound {
		t.Fatalf("session SampleVisits %d exceeds the linear bound %d", total, bound)
	}
}
