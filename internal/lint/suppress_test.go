package lint

import (
	"strings"
	"testing"
)

// TestSuppressions drives the full directive pipeline over the suppress
// fixture: two valid //pruner:allow directives (above-line and inline)
// must waive their rawgo diagnostics; a directive with no reason and one
// naming an unknown check are malformed (and do NOT suppress); a
// directive with no matching diagnostic must surface as unused.
func TestSuppressions(t *testing.T) {
	_, diags := fixtureDiags(t, RawGo, "fixture/suppress", "suppress", RunOptions{})
	var kept, suppressed, directive []Diagnostic
	for _, d := range diags {
		switch {
		case d.Analyzer == "suppress":
			directive = append(directive, d)
		case d.Suppressed:
			suppressed = append(suppressed, d)
		default:
			kept = append(kept, d)
		}
	}
	// The two go statements under malformed directives survive: a broken
	// allowlist entry must not silently suppress.
	if len(kept) != 2 {
		t.Fatalf("%d diagnostics survived suppression, want 2: %v", len(kept), kept)
	}
	// The two waived diagnostics come back marked, each carrying its
	// directive's reason, so the -json output can render them.
	if len(suppressed) != 2 {
		t.Fatalf("%d diagnostics marked suppressed, want 2: %v", len(suppressed), suppressed)
	}
	for _, d := range suppressed {
		if d.Reason == "" || d.Failing() {
			t.Errorf("suppressed diagnostic lacks a reason or still fails: %+v", d)
		}
	}
	// In file order: the unused directive, then the two malformed ones.
	// All three fail the run.
	wantDirective := []string{"unused //pruner:allow rawgo", "has no reason", "unknown check"}
	if len(directive) != len(wantDirective) {
		t.Fatalf("got %d directive diagnostics, want %d: %v", len(directive), len(wantDirective), directive)
	}
	for i, d := range directive {
		if !strings.Contains(d.Message, wantDirective[i]) || !d.Failing() {
			t.Errorf("directive diagnostic %d: got %q (failing=%v), want a failing mention of %q", i, d.Message, d.Failing(), wantDirective[i])
		}
	}
}

func TestSplitDirective(t *testing.T) {
	cases := []struct {
		in, check, reason string
	}{
		{" rawgo — the http serve loop owns this goroutine", "rawgo", "the http serve loop owns this goroutine"},
		{" rawgo -- double-dash separator", "rawgo", "double-dash separator"},
		{" rawgo: colon separator", "rawgo", "colon separator"},
		{" maprange emitted in fixed order", "maprange", "emitted in fixed order"},
		{" rawgo", "rawgo", ""},
		{"", "", ""},
	}
	for _, c := range cases {
		check, reason := splitDirective(c.in)
		if check != c.check || reason != c.reason {
			t.Errorf("splitDirective(%q) = (%q, %q), want (%q, %q)", c.in, check, reason, c.check, c.reason)
		}
	}
}
