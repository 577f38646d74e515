package tuner

import (
	"context"
	"sync"
	"testing"

	"pruner/internal/costmodel"
	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/measure"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
	"pruner/internal/search"
	"pruner/internal/simulator"
)

// lateMeasurer is the fake for a measurement still running after its
// session gave up: on batch cancelAt it cancels the session, waits until
// Tune has returned — every round memo the session drew is released by
// then — then measures the batch anyway and reports the cancellation.
// Measurement lowers its batch into a memo of its own, so the late one
// reads no round memo.
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

// memoProbe is PaCM recording each round's Predict calls: the schedules
// scored and how many programs each call added to the round memo. The
// round ends when plan unsets the memo.
type memoProbe struct {
	*costmodel.PaCM
	memo   *schedule.Memo
	calls  []probeCall
	rounds [][]probeCall
}

type probeCall struct {
	schs  []*schedule.Schedule
	added int
}

func (p *memoProbe) SetMemo(m *schedule.Memo) {
	p.PaCM.SetMemo(m)
	if m == nil && p.calls != nil {
		p.rounds = append(p.rounds, p.calls)
		p.calls = nil
	}
	p.memo = m
}

func (p *memoProbe) Predict(t *ir.Task, schs []*schedule.Schedule) []float64 {
	before := p.memo.Len()
	out := p.PaCM.Predict(t, schs)
	p.calls = append(p.calls, probeCall{append([]*schedule.Schedule(nil), schs...), p.memo.Len() - before})
	return out
}

// TestAdaptiveCaptureLowersOnlyUnscored: the adaptive session's capture
// of the verifier's scores — a round's second Predict, after the
// policy's verify — scores the round's carved batch, so it adds to the
// round memo exactly the batch members the policy never scored (the
// ε-greedy random picks) and no heap clone of one it did.
func TestAdaptiveCaptureLowersOnlyUnscored(t *testing.T) {
	probe := &memoProbe{PaCM: costmodel.NewPaCM(3)}
	res := Tune(device.T4, twoTasks(), Options{
		Trials:      60,
		BatchSize:   10,
		Policy:      search.NewPrunerPolicy(),
		Model:       probe,
		OnlineTrain: true,
		Seed:        9,
		Pool:        parallel.New(1),
		AdaptBudget: true,
	})
	if res.Interrupted || len(res.Records) != 60 {
		t.Fatalf("session interrupted=%v with %d records", res.Interrupted, len(res.Records))
	}
	captured, unscored, members := 0, 0, 0
	for r, calls := range probe.rounds {
		if len(calls) > 2 {
			t.Fatalf("round %d: %d Predict calls, want the policy's verify and the capture", r, len(calls))
		}
		if len(calls) < 2 {
			continue
		}
		scored := map[*schedule.Schedule]bool{}
		for _, s := range calls[0].schs {
			scored[s] = true
		}
		capture := calls[1]
		fresh := 0
		for _, s := range capture.schs {
			if !scored[s] {
				fresh++
			}
		}
		if capture.added != fresh {
			t.Errorf("round %d: the capture added %d programs to the memo for a batch of %d with %d never scored",
				r, capture.added, len(capture.schs), fresh)
		}
		captured++
		unscored += fresh
		members += len(capture.schs)
	}
	if captured == 0 || unscored == 0 || unscored == members {
		t.Fatalf("%d captures of %d members, %d never scored: the session must capture batches mixing scored and random picks",
			captured, members, unscored)
	}
}
