package tuner

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pruner/internal/costmodel"
	"pruner/internal/device"
	"pruner/internal/nn"
	"pruner/internal/obs"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
	"pruner/internal/search"
)

// gateTimeout bounds every wait a probe makes on another stage: a probe
// that times out records it, so a broken overlap fails the test instead
// of hanging it.
const gateTimeout = 30 * time.Second

// probeModel is a trainable stand-in cost model for the fit/draft overlap
// tests: it scores randomly, and Fit k runs onFit(k) — which may wait on
// another stage — while counted as running.
type probeModel struct {
	*costmodel.Random
	params  []*nn.Tensor
	onFit   func(k int)
	fits    atomic.Int32 // Fit calls started
	running atomic.Int32 // Fit calls not yet returned
}

func newProbeModel(onFit func(k int)) *probeModel {
	return &probeModel{Random: costmodel.NewRandom(3), params: []*nn.Tensor{nn.New(1, 1)}, onFit: onFit}
}

// Params implements costmodel.Model: non-nil, so the session trains.
func (m *probeModel) Params() []*nn.Tensor { return m.params }

// Fit implements costmodel.Model.
func (m *probeModel) Fit(recs []costmodel.Record, _ costmodel.FitOptions) costmodel.FitReport {
	m.running.Add(1)
	defer m.running.Add(-1)
	if k := int(m.fits.Add(1)) - 1; m.onFit != nil {
		m.onFit(k)
	}
	return costmodel.FitReport{Samples: len(recs), SampleVisits: len(recs)}
}

// probePolicy decorates a policy: NextBatch call k runs onDraft(k) as its
// draft starts, before the policy can reach verify.
type probePolicy struct {
	search.Policy
	onDraft func(k int)
	calls   int
}

func (p *probePolicy) NextBatch(ctx *search.Context, n int) []*schedule.Schedule {
	p.onDraft(p.calls)
	p.calls++
	return p.Policy.NextBatch(ctx, n)
}

// smallPrunerPolicy is the Pruner policy at a test-sized draft.
func smallPrunerPolicy() *search.PrunerPolicy {
	return &search.PrunerPolicy{LSE: search.LSEParams{SpecSize: 64, Population: 128, Steps: 2}, RandomDraft: 16, Eps: 0.1}
}

// waitGate waits for ch, reporting false after gateTimeout.
func waitGate(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	case <-time.After(gateTimeout):
		return false
	}
}

// TestFitOverlapsDraft pins the tentpole's schedule: round 0's online fit
// is still running when round 1's draft starts — the fit blocks until the
// draft signals, so the session finishes only if the two overlap — and at
// Parallelism 1 they never run at the same time.
func TestFitOverlapsDraft(t *testing.T) {
	run := func(parallelism int, m *probeModel, onDraft func(int)) *Result {
		return Tune(device.T4, twoTasks(), Options{
			Trials:      30,
			BatchSize:   10,
			Policy:      &probePolicy{Policy: smallPrunerPolicy(), onDraft: onDraft},
			Model:       m,
			OnlineTrain: true,
			Seed:        9,
			Pool:        parallel.New(parallelism),
		})
	}

	t.Run("overlap", func(t *testing.T) {
		drafted := make(chan struct{})
		var sawDraft atomic.Bool
		m := newProbeModel(func(k int) {
			if k == 0 {
				sawDraft.Store(waitGate(drafted))
			}
		})
		res := run(2, m, func(k int) {
			if k == 1 {
				close(drafted)
			}
		})
		if !sawDraft.Load() {
			t.Fatal("round 0's fit never saw round 1's draft start: the fit did not run beside the draft")
		}
		if len(res.Curve) != 3 || m.fits.Load() != 3 || m.running.Load() != 0 {
			t.Fatalf("curve %d points, %d fits, %d still running; want 3, 3, 0",
				len(res.Curve), m.fits.Load(), m.running.Load())
		}
	})

	t.Run("serial at Parallelism 1", func(t *testing.T) {
		var drafts, overlaps atomic.Int32
		m := newProbeModel(nil)
		m.onFit = func(int) {
			before := drafts.Load()
			for i := 0; i < 100; i++ {
				runtime.Gosched() // give a concurrent draft every chance to start
			}
			if drafts.Load() != before {
				overlaps.Add(1)
			}
		}
		run(1, m, func(int) {
			drafts.Add(1)
			if m.running.Load() != 0 {
				overlaps.Add(1)
			}
		})
		if overlaps.Load() != 0 {
			t.Fatalf("fit and draft ran concurrently %d times at Parallelism 1", overlaps.Load())
		}
		if m.fits.Load() != 3 {
			t.Fatalf("%d fits, want 3", m.fits.Load())
		}
	})
}

// spansNamed returns the observer's finished spans called name.
func spansNamed(ob *obs.Observer, name string) []obs.Span {
	var out []obs.Span
	for _, sp := range ob.Sink().Snapshot() {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// spanAttr returns a span's attribute value for key, or nil.
func spanAttr(sp obs.Span, key string) any {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// gaplessRounds checks that the curve and the Progress events cover
// rounds 0..n-1 in order, with one event per curve point carrying its
// numbers.
func gaplessRounds(t *testing.T, res *Result, events []ProgressEvent, n int) {
	t.Helper()
	if len(res.Curve) != n || len(events) != n {
		t.Fatalf("%d curve points and %d Progress events, want %d of each", len(res.Curve), len(events), n)
	}
	for i, ev := range events {
		p := res.Curve[i]
		if ev.Round != i || p.Round != i || ev.SimSeconds != p.SimSeconds || ev.Trials != p.Trials {
			t.Fatalf("round %d: event %+v, curve point %+v", i, ev, p)
		}
	}
}
