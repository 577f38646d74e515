package lint

// ClockTaint machine-checks the clock rule: wall-clock readings —
// obs.Clock.Now, time.Now/Since/Until — exist so the daemon can meter
// itself, and they may flow into obs instruments, spans, logs, and the
// SSE round stamp at the serving boundary. They must never flow into a
// Result, a measurement record, a convergence curve, or anything else
// the determinism fingerprint covers: a single laundered time.Since
// would make results differ across machines while every test still
// passes locally. The rule used to rest on one golden-fingerprint test
// and review; this analyzer enforces it as dataflow — taint starts at
// clock reads, propagates through locals, returns, and helper
// parameters (dataflow.go), and must not reach a write into one of the
// fingerprinted sink types.

import (
	"go/ast"
	"go/types"
	"strings"
)

var ClockTaint = &Analyzer{
	Name: "clocktaint",
	Doc:  "clock readings must not flow into results, records, curves, or fingerprinted values",
	Run:  runClockTaint,
}

// clockSource classifies taint origins by callee ID: the stdlib
// functions that return a clock reading (see wallClockFuncs) and any
// Clock.Now method (pruner/internal/obs.Clock and the fixture clock
// alike).
func clockSource(id string) bool {
	if name, ok := strings.CutPrefix(id, "time."); ok {
		return wallClockFuncs[name]
	}
	return strings.HasSuffix(id, ".Clock.Now") || strings.HasSuffix(id, "obs.realClock.Now")
}

// clockSinkTypes are the fingerprinted value types, matched by the
// "pkg.Type" suffix of the fully-qualified name so the fixture package
// exercises the same table the module runs under.
var clockSinkTypes = []string{
	"tuner.Result", "tuner.CurvePoint", "tuner.BestEntry", "tuner.ProgressEvent",
	"costmodel.Record", "costmodel.FitReport",
	"simulator.Result", "simulator.Clock",
	"measure.recordJSON",
	"server.JobResult", "server.CurveView", "server.BestView", "server.jobView",
	"schedule.Schedule",
}

// clockSinkType resolves t (pointers dereferenced) to a sink type's
// qualified name, or "".
func clockSinkType(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	full := namedID(t)
	for _, s := range clockSinkTypes {
		if full == s || strings.HasSuffix(full, "/"+s) {
			return full
		}
	}
	return ""
}

// clockExempt marks the packages allowed to consume clock readings
// freely: the obs layer (it *is* the instrument plumbing), main
// packages (the CLI/serving boundary owns its log stamps), and the
// lint tool itself.
func clockExempt(pkg *LoadedPackage) bool {
	return mainOrTestPkg(pkg) ||
		strings.HasSuffix(pkg.ImportPath, "internal/obs") ||
		strings.HasSuffix(pkg.ImportPath, "internal/lint")
}

func runClockTaint(pass *Pass) error {
	g := pass.Graph()

	// Interprocedural summaries over the whole module — exempt packages
	// included, so a clock value laundered *through* them is still seen.
	returns := taintReturnSummaries(g, clockSource)
	callTaints := func(id string) bool { return clockSource(id) || returns[id] }

	// Parameter-flow summaries: parameter i of f is a sink conduit when
	// a value passed there may be stored into a sink-typed field.
	flows := computeParamFlows(g, callTaints, func(ft *funcTaint) bool {
		hit := false
		clockSinkWrites(ft, func(string, string, ast.Node) { hit = true })
		return hit
	})

	for _, id := range g.sortedNodeIDs() {
		n := g.Nodes[id]
		if clockExempt(n.Pkg) {
			continue
		}
		ft := newFuncTaint(n, nil, callTaints)
		clockSinkWrites(ft, func(sink, field string, at ast.Node) {
			pass.Reportf(at.Pos(),
				"clock-derived value flows into %s.%s; clock readings may only feed obs instruments or serving-boundary stamps (DESIGN.md §12)",
				sink, field)
		})
		ft.taintedArgs(flows, func(arg ast.Expr, calleeID string, i int) {
			pass.Reportf(arg.Pos(),
				"clock-derived value reaches %s parameter %q, which stores it into a fingerprinted type; clock readings may only feed obs instruments or serving-boundary stamps",
				calleeID, paramName(g, calleeID, i))
		})
	}
	return nil
}

// clockSinkWrites invokes found for every program point of the solved
// function where a tainted value is stored into a sink type: a field
// assignment whose base is sink-typed, or a composite literal of a sink
// type with a tainted element.
func clockSinkWrites(ft *funcTaint, found func(sink, field string, at ast.Node)) {
	info := ft.info
	ast.Inspect(ft.node.Decl.Body, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.AssignStmt:
			for i, l := range v.Lhs {
				sel, ok := ast.Unparen(l).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				tv, ok := info.Types[sel.X]
				if !ok {
					continue
				}
				sink := clockSinkType(tv.Type)
				if sink == "" {
					continue
				}
				if rhs := boundValue(v.Rhs, len(v.Lhs), i); rhs != nil && ft.exprTainted(rhs) {
					found(sink, sel.Sel.Name, rhs)
				}
			}
		case *ast.CompositeLit:
			tv, ok := info.Types[v]
			if !ok {
				return true
			}
			sink := clockSinkType(tv.Type)
			if sink == "" {
				return true
			}
			st, ok := structOf(tv.Type)
			if !ok {
				return true
			}
			for i, el := range v.Elts {
				name := ""
				val := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if k, ok := kv.Key.(*ast.Ident); ok {
						name = k.Name
					}
					val = kv.Value
				} else if i < st.NumFields() {
					name = st.Field(i).Name()
				}
				if ft.exprTainted(val) {
					found(sink, name, val)
				}
			}
		}
		return true
	})
}

// structOf resolves t (pointers dereferenced) to its struct underlying.
func structOf(t types.Type) (*types.Struct, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// paramName renders the name of callee's i-th parameter for messages.
func paramName(g *CallGraph, calleeID string, i int) string {
	n := g.Nodes[calleeID]
	if n == nil {
		return "?"
	}
	params := paramObjects(n.Pkg.Info, n.Decl)
	if i < len(params) && params[i] != nil {
		return params[i].Name()
	}
	return "?"
}
