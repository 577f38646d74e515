package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestGlobalRandFixture(t *testing.T) {
	runFixture(t, GlobalRand, "fixture/globalrand", "globalrand", RunOptions{})
}

func TestMapRangeFixture(t *testing.T) {
	runFixture(t, MapRange, "fixture/maprange", "maprange", RunOptions{})
}

func TestRawGoFixture(t *testing.T) {
	runFixture(t, RawGo, "fixture/rawgo", "rawgo", RunOptions{})
}

// TestRawGoAllowedPackage type-checks the same kind of code under an
// import path ending in internal/parallel — the one package allowed to
// own goroutines — and expects silence.
func TestRawGoAllowedPackage(t *testing.T) {
	runFixture(t, RawGo, "fixture/rawgo/internal/parallel", "rawgo/internal/parallel", RunOptions{})
}

func TestWallTimeFixture(t *testing.T) {
	runFixture(t, WallTime, "fixture/walltime/tuner", "walltime/tuner", RunOptions{})
}

// TestWallTimeAllowedPackage runs the same check over a
// measurement-boundary package name ("server"), where wall-clock reads
// are the whole point, and expects silence.
func TestWallTimeAllowedPackage(t *testing.T) {
	runFixture(t, WallTime, "fixture/walltime/server", "walltime/server", RunOptions{})
}

func TestCtxFlowFixture(t *testing.T) {
	runFixture(t, CtxFlow, "fixture/ctxflow", "ctxflow", RunOptions{})
}

func TestLockHeldFixture(t *testing.T) {
	runFixture(t, LockHeld, "fixture/lockheld", "lockheld", RunOptions{})
}

func TestHotAllocFixture(t *testing.T) {
	runFixture(t, HotAlloc, "fixture/hotalloc", "hotalloc", RunOptions{})
}

func TestErrDropFixture(t *testing.T) {
	runFixture(t, ErrDrop, "fixture/internal/errdrop", "errdrop", RunOptions{})
}

// TestErrDropScopedToInternal type-checks the same fixture under a
// non-internal import path, where the check does not apply.
func TestErrDropScopedToInternal(t *testing.T) {
	_, diags := fixtureDiags(t, ErrDrop, "fixture/errdrop", "errdrop", RunOptions{})
	for _, d := range diags {
		t.Errorf("unexpected diagnostic outside internal/: %s", d)
	}
}

func TestExhaustFixture(t *testing.T) {
	runFixture(t, Exhaust, "fixture/exhaust", "exhaust", RunOptions{})
}

func TestLockOrderFixture(t *testing.T) {
	runFixture(t, LockOrder, "fixture/lockorder", "lockorder", RunOptions{})
}

// The clocktaint fixture carries the package name "tuner" so its sink
// types match the suffix table the real module runs under.
func TestClockTaintFixture(t *testing.T) {
	runFixture(t, ClockTaint, "fixture/clocktaint/tuner", "clocktaint/tuner", RunOptions{})
}

// TestWireShapeClean pins the extraction path end to end: the fixture's
// live schema must match its checked-in lock exactly — no findings, no
// notices.
func TestWireShapeClean(t *testing.T) {
	runFixture(t, WireShape, "fixture/wireshape/clean", "wireshape/clean",
		RunOptions{WireLock: filepath.Join("testdata", "wirelock", "clean.lock")})
}

// TestWireShapeDrift pins every drift class against the deliberately
// stale drift.lock: renamed wire name, changed type, removed field
// (breaking) and an unrecorded live field (additive notice).
func TestWireShapeDrift(t *testing.T) {
	runFixture(t, WireShape, "fixture/wireshape/drift", "wireshape/drift",
		RunOptions{WireLock: filepath.Join("testdata", "wirelock", "drift.lock")})
}

// TestWireNoticeReportedNotCounted pins the additive-drift contract
// through the path the driver and TestRepoCleanUnderPrunerVet share:
// the drift fixture's unrecorded live field comes back as a diagnostic
// (so -json and the text output show it) but is not Failing, so a new
// omitempty wire field cannot fail `go test` while `make lint` and
// `make wire-check` pass; the three breaking drifts still fail.
func TestWireNoticeReportedNotCounted(t *testing.T) {
	_, diags := fixtureDiags(t, WireShape, "fixture/wireshape/drift", "wireshape/drift",
		RunOptions{WireLock: filepath.Join("testdata", "wirelock", "drift.lock")})
	notices, failing := 0, 0
	for _, d := range diags {
		if d.Notice {
			notices++
			if d.Failing() {
				t.Errorf("notice counted as a failing finding: %s", d)
			}
		} else if d.Failing() {
			failing++
		}
	}
	if notices != 1 || failing != 3 {
		t.Errorf("drift fixture: %d notice(s) and %d failing finding(s), want 1 and 3: %v", notices, failing, diags)
	}
}

// TestWireShapeWrite regenerates the clean fixture's lock into a temp
// file and requires byte equality with the checked-in golden — the
// write path and Format stability in one assertion.
func TestWireShapeWrite(t *testing.T) {
	out := filepath.Join(t.TempDir(), "wire.lock")
	fixtureDiags(t, WireShape, "fixture/wireshape/clean", "wireshape/clean",
		RunOptions{WireLock: out, WriteWire: true})
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "wirelock", "clean.lock"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("regenerated lock differs from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// The write is a fixed point of parse∘format.
	parsed, err := ParseWireLock(got)
	if err != nil {
		t.Fatalf("regenerated lock does not parse: %v", err)
	}
	if string(FormatWireLock(parsed)) != string(got) {
		t.Error("format(parse(lock)) is not a fixed point")
	}
}

// TestWireShapeMissingLock pins the unlocked-tree behavior: a missing
// lock file is itself a (non-notice) finding naming the regeneration
// path, anchored at the lock path.
func TestWireShapeMissingLock(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "wire.lock")
	_, diags := fixtureDiags(t, WireShape, "fixture/wireshape/clean", "wireshape/clean",
		RunOptions{WireLock: missing})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Notice || d.Pos.Filename != missing || !strings.Contains(d.Message, "-write-wire") {
		t.Errorf("unexpected missing-lock diagnostic: %+v", d)
	}
}
