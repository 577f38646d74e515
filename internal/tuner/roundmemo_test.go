package tuner

import (
	"context"
	"sync"
	"testing"

	"pruner/internal/costmodel"
	"pruner/internal/device"
	"pruner/internal/measure"
	"pruner/internal/schedule"
	"pruner/internal/search"
	"pruner/internal/simulator"
)

// lateMeasurer is the fake for a measurement still running after its
// session gave up: on batch cancelAt it cancels the session, waits until
// Tune has returned — every round memo the session drew is released by
// then — then measures the batch anyway and reports the cancellation.
// Measurement lowers its own batch, so the late one reads no memo.
type lateMeasurer struct {
	inner    *measure.Sim
	cancelAt int
	cancel   context.CancelFunc
	returned chan struct{} // closed by the test once Tune returns
	late     sync.WaitGroup
	batches  int
}

func (l *lateMeasurer) Info() measure.Info { return l.inner.Info() }

func (l *lateMeasurer) Measure(ctx context.Context, req measure.Request) ([]measure.Result, error) {
	l.batches++
	if l.batches <= l.cancelAt {
		return l.inner.Measure(ctx, req)
	}
	l.late.Add(1)
	defer l.late.Done()
	l.cancel()
	<-l.returned
	if _, err := l.inner.Measure(context.Background(), req); err != nil {
		panic(err)
	}
	return nil, ctx.Err()
}

// cancelledSession runs tunePipeline's session at depth 1, cancelled
// while its third batch is being measured; that measurement finishes
// after Tune has returned.
func cancelledSession() *Result {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lm := &lateMeasurer{inner: measure.NewSim(simulator.New(device.T4)), cancelAt: 2, cancel: cancel, returned: make(chan struct{})}
	res := Tune(device.T4, twoTasks(), Options{
		Trials:      60,
		BatchSize:   10,
		Policy:      search.NewPrunerPolicy(),
		Model:       costmodel.NewPaCM(3),
		OnlineTrain: true,
		Seed:        9,
		Ctx:         ctx,
		Measurer:    lm,
	})
	close(lm.returned)
	lm.late.Wait()
	return res
}

// TestRoundMemoPoisonedSessions: no round memo is read after its
// Release, which plan defers. With release poisoning on — a parked
// memo's float chunks NaN, its slots zeroed, and Lower on it a panic —
// the golden session, every golden-matrix cell (depths 1 and 2), the
// adaptive session and a session cancelled mid-measurement keep their
// fingerprints. Moving the release in plan ahead of the adaptive
// session's capture of the verifier's scores fails it.
func TestRoundMemoPoisonedSessions(t *testing.T) {
	baseline := resultFingerprint(cancelledSession())
	defer schedule.SetPoisonOnRelease(schedule.SetPoisonOnRelease(true))

	if got := resultFingerprint(tunePipeline(1, 1, nil)); got != preRefactorGolden {
		t.Errorf("golden session: fingerprint %s, want %s", got, preRefactorGolden)
	}
	for _, cell := range goldenMatrix {
		opt := cell.opt()
		opt.BatchSize = 10
		opt.Seed = 9
		if got := resultFingerprint(Tune(cell.dev, twoTasks(), opt)); got != cell.golden {
			t.Errorf("%s: fingerprint %s, want %s", cell.name, got, cell.golden)
		}
	}
	if got := resultFingerprint(tuneAdaptive(1, 1, nil)); got != adaptiveGolden {
		t.Errorf("adaptive session: fingerprint %s, want %s", got, adaptiveGolden)
	}
	res := cancelledSession()
	if !res.Interrupted || len(res.Records) != 20 {
		t.Fatalf("cancelled session: interrupted=%v with %d records, want true and 20", res.Interrupted, len(res.Records))
	}
	if got := resultFingerprint(res); got != baseline {
		t.Errorf("cancelled session: fingerprint %s poisoned, %s not", got, baseline)
	}
}
