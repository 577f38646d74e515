package lint

import (
	"fmt"
	"sync"
)

// RunOptions carries the driver knobs that only some analyzers read:
// the wireshape golden's path (for fixtures; "" resolves next to
// go.mod) and its regeneration mode (pruner-vet -write-wire).
type RunOptions struct {
	WireLock  string
	WriteWire bool
}

// Run loads the packages matched by patterns, applies every analyzer
// and the //pruner:allow suppressions, and returns all diagnostics in
// stable order: surviving findings, malformed and unused suppressions,
// and — marked as such — waived findings and notices. The tree honors
// the contract when none of them is Failing.
func Run(patterns []string, analyzers []*Analyzer, opts RunOptions) ([]Diagnostic, error) {
	pkgs, err := Load(patterns)
	if err != nil {
		return nil, err
	}
	return analyze(pkgs, analyzers, opts)
}

// analyze is Run after loading — the path the driver and the fixture
// harness share.
func analyze(pkgs []*LoadedPackage, analyzers []*Analyzer, opts RunOptions) ([]Diagnostic, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	var diags []Diagnostic
	graph := sync.OnceValue(func() *CallGraph { return BuildCallGraph(pkgs) })
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       pkgs[0].Fset,
			Pkgs:       pkgs,
			RunOptions: opts,
			graph:      graph,
			report:     func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", a.Name, err)
		}
	}

	// Directive names validate against the full suite plus whatever was
	// passed in, not just the selected subset: running `-checks
	// walltime` must not misreport a legitimate rawgo suppression as an
	// unknown check. A directive for a known check whose analyzer is not
	// running this pass is simply inert — it cannot match or be unused.
	known := byName(All())
	selected := byName(analyzers)
	for name, a := range selected {
		known[name] = a
	}
	var bad []Diagnostic
	var supps []*Suppression
	for _, pkg := range pkgs {
		s, b := CollectSuppressions(pkg.Fset, pkg.Files, known)
		for _, sup := range s {
			if selected[sup.Check] != nil {
				supps = append(supps, sup)
			}
		}
		bad = append(bad, b...)
	}

	kept, suppressed, unused := ApplySuppressions(diags, supps)
	all := append(kept, suppressed...)
	all = append(all, bad...)
	all = append(all, unused...)
	sortDiagnostics(all)
	return all, nil
}
