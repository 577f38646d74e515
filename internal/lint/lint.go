// Package lint is a stdlib-only analysis framework in the style of
// golang.org/x/tools/go/analysis, plus the twelve analyzers that turn
// this repo's determinism, concurrency and wire conventions into
// machine-checked contracts. The promise under test is that results are
// bitwise-identical at any parallelism, pipeline depth, and measurement
// backend, and that stored records stay readable. That promise rests on
// invariants no compiler enforces — every random draw comes from an
// owned per-task *rand.Rand, map iteration is sorted before any
// order-sensitive effect, fan-out goes through internal/parallel,
// wall-clock time never reaches a fingerprinted value, context flows to
// everything that can block, no mutex is held across a blocking call or
// acquired out of order, hot paths do not allocate, and the wire schema
// matches wire.lock. The analyzers encode them so CI fails the moment
// new code breaks one.
//
// Every analyzer has the same shape: one Run over one Pass, which
// carries every loaded package and builds the whole-module call graph
// on first use. Checks that need only syntax range over Pass.Pkgs;
// cross-function contracts (ctxflow, hotalloc, lockheld, lockorder)
// read the graph; value-flow contracts (clocktaint, wireshape) add the
// def-use summaries of dataflow.go on top of it. The pieces they share
// exist once: resolve.go names what a call or selector refers to,
// lockwalk.go walks critical sections, blocking.go says what blocks.
// See DESIGN.md §12.
//
// The framework is deliberately dependency-free: packages are discovered
// with `go list -deps -export -json`, parsed with go/parser, and
// type-checked with go/types against the compiler's export data, so the
// module keeps its "stdlib only" property.
//
// Known-good violations are suppressed in place with
//
//	//pruner:allow <check> — <reason>
//
// on the offending line or the line above. The driver fails on
// suppressions that are malformed, name an unknown check, lack a
// reason, or no longer match a diagnostic, so allowlists cannot rot.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// An Analyzer describes one check: a name (used in diagnostics and in
// //pruner:allow directives), a short doc string, and its Run function.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass hands an analyzer every loaded package, the call graph over
// them, and the driver options. Diagnostics may land in any file.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*LoadedPackage
	RunOptions

	graph  func() *CallGraph
	report func(Diagnostic)
}

// Graph returns the whole-module static call graph, built the first
// time any analyzer of the run asks for it and shared by the rest.
func (p *Pass) Graph() *CallGraph { return p.graph() }

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.reportAt(p.Fset.Position(pos), false, format, args...)
}

// reportAt records a diagnostic at an already-resolved position (which
// may name a non-Go file, e.g. wire.lock itself). notice marks additive
// findings that inform but do not fail the run.
func (p *Pass) reportAt(pos token.Position, notice bool, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Notice:   notice,
	})
}

// A Diagnostic is one finding, resolved to a file position. Run returns
// every one — waived and additive included, so machine consumers (the
// -json driver output) can render the full picture; Failing says which
// of them break the contract.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Suppressed marks a finding waived by a //pruner:allow directive,
	// whose reason it carries.
	Suppressed bool
	Reason     string
	// Notice marks additive, non-failing findings (wireshape's "new
	// wire field recorded nowhere yet"): printed, never counted.
	Notice bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Failing reports whether the diagnostic breaks the contract: neither
// waived nor a notice. It is the one predicate behind pruner-vet's exit
// code and TestRepoCleanUnderPrunerVet, so `make lint` and `go test`
// cannot disagree about a tree.
func (d Diagnostic) Failing() bool { return !d.Suppressed && !d.Notice }

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		ClockTaint, CtxFlow, ErrDrop, Exhaust, GlobalRand, HotAlloc,
		LockHeld, LockOrder, MapRange, RawGo, WallTime, WireShape,
	}
}

// byName resolves the suite into a lookup table for directive validation.
func byName(analyzers []*Analyzer) map[string]*Analyzer {
	m := make(map[string]*Analyzer, len(analyzers))
	for _, a := range analyzers {
		m[a.Name] = a
	}
	return m
}

// sortDiagnostics orders findings by file, line, column, then analyzer,
// for stable output and stable tests.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
