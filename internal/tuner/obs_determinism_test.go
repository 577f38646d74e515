package tuner

import (
	"bytes"
	"testing"

	"pruner/internal/costmodel"
	"pruner/internal/device"
	"pruner/internal/measure"
	"pruner/internal/obs"
	"pruner/internal/parallel"
	"pruner/internal/search"
)

// tuneObserved is tunePipeline with the session armed with an observer.
func tuneObserved(depth, parallelism int, m measure.Measurer, ob *obs.Observer) *Result {
	return Tune(device.T4, twoTasks(), Options{
		Trials:        60,
		BatchSize:     10,
		Policy:        search.NewPrunerPolicy(),
		Model:         costmodel.NewPaCM(3),
		OnlineTrain:   true,
		Seed:          9,
		Pool:          parallel.New(parallelism),
		PipelineDepth: depth,
		Measurer:      m,
		Obs:           ob,
	})
}

// TestObservabilityPreservesGoldenFingerprint is the tentpole's hard
// constraint: arming a session with a REAL-clock observer (metrics +
// tracing fully enabled, actual wall-time flowing through every span)
// must leave the session's output bitwise unchanged — clock readings go
// into instruments only, never into tuning decisions.
func TestObservabilityPreservesGoldenFingerprint(t *testing.T) {
	// Depth 1 against the pre-refactor golden, observer armed.
	ob := obs.New(obs.RealClock(), 0)
	if got := resultFingerprint(tuneObserved(1, 1, nil, ob)); got != preRefactorGolden {
		t.Fatalf("observed depth-1 fingerprint %s, pre-refactor golden %s", got, preRefactorGolden)
	}

	// The observer genuinely collected: spans landed in the sink, the
	// round counter moved, and the exposition is valid under the strict
	// parser — observability being free must not mean it being inert.
	if ob.Sink().Total() == 0 {
		t.Fatal("armed session produced no spans")
	}
	if v, ok := ob.Reg().Value(MetricRounds); !ok || v == 0 {
		t.Fatalf("armed session never incremented %s (got %v, %v)", MetricRounds, v, ok)
	}
	var buf bytes.Buffer
	if err := ob.Reg().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateText(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("armed session's exposition is malformed: %v\n%s", err, buf.String())
	}

	// Deep pipeline: armed and unarmed sessions are bitwise identical to
	// each other at any parallelism (the golden pins depth 1 only).
	armed := resultFingerprint(tuneObserved(4, 4, nil, obs.New(obs.RealClock(), 0)))
	plain := resultFingerprint(tunePipeline(4, 4, nil))
	if armed != plain {
		t.Fatalf("depth-4 fingerprints diverge: armed %s, unarmed %s", armed, plain)
	}
}
