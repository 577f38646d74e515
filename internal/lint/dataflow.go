package lint

// The def-use dataflow layer behind the value-flow contracts (wireshape,
// clocktaint). The call graph answers "who calls whom"; these contracts
// need to know where *values* travel — does a clock reading end up
// inside a Result, does a struct handed to a helper end up inside
// json.Marshal. Both questions reduce to the same machinery: an
// intraprocedural may-taint analysis over def-use chains (go/types
// object identity, iterated to a fixed point over the body's
// assignments), composed interprocedurally through two kinds of
// per-function summaries on the call graph —
//
//   - return summaries: "a call to f yields a tainted value"
//     (taintReturnSummaries), and
//   - parameter-flow summaries: "a value passed at parameter i of f
//     reaches the analyzer's sink" (computeParamFlows),
//
// each its own fixed point over the module, so taint laundered through
// any chain of helpers is still seen. The analysis is deliberately
// may-alias-free and flow-insensitive inside a body: taint only grows,
// which keeps it sound for the "never flows" contracts it backs and
// cheap enough to run on every `make lint`.

import (
	"go/ast"
	"go/types"
)

// funcTaint is one intraprocedural may-taint solution: the set of local
// objects of a single declaration (literals included — captured
// variables are shared objects) that may carry a tainted value, given
// seed objects and a verdict for calls whose result is tainted.
type funcTaint struct {
	node       *FuncNode
	info       *types.Info
	callTaints func(calleeID string) bool
	tainted    map[types.Object]bool
}

// newFuncTaint seeds and solves the taint state for one function.
func newFuncTaint(n *FuncNode, seeds []types.Object, callTaints func(string) bool) *funcTaint {
	ft := &funcTaint{
		node:       n,
		info:       n.Pkg.Info,
		callTaints: callTaints,
		tainted:    map[types.Object]bool{},
	}
	for _, s := range seeds {
		ft.tainted[s] = true
	}
	ft.solve()
	return ft
}

// solve iterates the body's value-binding forms — assignments, var
// specs, range clauses — until the tainted set stops growing.
func (ft *funcTaint) solve() {
	body := ft.node.Decl.Body
	for changed := true; changed; {
		changed = false
		mark := func(id ast.Expr) {
			ident, ok := id.(*ast.Ident)
			if !ok {
				return
			}
			obj := ft.info.Defs[ident]
			if obj == nil {
				obj = ft.info.Uses[ident]
			}
			if obj != nil && !ft.tainted[obj] {
				ft.tainted[obj] = true
				changed = true
			}
		}
		ast.Inspect(body, func(x ast.Node) bool {
			switch s := x.(type) {
			case *ast.AssignStmt:
				for i, l := range s.Lhs {
					if v := boundValue(s.Rhs, len(s.Lhs), i); v != nil && ft.exprTainted(v) {
						mark(l)
					}
				}
			case *ast.ValueSpec:
				for i, n := range s.Names {
					if v := boundValue(s.Values, len(s.Names), i); v != nil && ft.exprTainted(v) {
						mark(n)
					}
				}
			case *ast.RangeStmt:
				if ft.exprTainted(s.X) {
					if s.Key != nil {
						mark(s.Key)
					}
					if s.Value != nil {
						mark(s.Value)
					}
				}
			}
			return true
		})
	}
}

// boundValue returns the expression bound to the i-th of n left-hand
// sides by an assignment or var spec: in the multi-value form (v, ok :=
// m[k] and friends) the one producer feeds — and, tainted, taints —
// every binding; otherwise the positional match, or nil when there is
// none (var x T).
func boundValue(values []ast.Expr, n, i int) ast.Expr {
	switch {
	case len(values) == 1 && n > 1:
		return values[0]
	case i < len(values):
		return values[i]
	}
	return nil
}

// exprTainted reports whether evaluating e may yield a tainted value:
// the expression mentions a tainted object, or calls something whose
// result is tainted. Containment is the propagation rule — a field
// read, index, slice, conversion, or method call on a tainted value is
// tainted. Function-literal bodies are not the literal's value and are
// skipped.
func (ft *funcTaint) exprTainted(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(x ast.Node) bool {
		if found {
			return false
		}
		switch v := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if obj := ft.info.Uses[v]; obj != nil && ft.tainted[obj] {
				found = true
			}
		case *ast.CallExpr:
			if fn := calleeFunc(ft.info, v); fn != nil && ft.callTaints != nil && ft.callTaints(FuncID(fn)) {
				found = true
				return false // arguments still matter, but we already know
			}
		}
		return !found
	})
	return found
}

// returnsTainted reports whether the function's own return statements
// (literal bodies excluded — their returns belong to the literal) may
// yield a tainted value, including taint parked in named results.
func (ft *funcTaint) returnsTainted() bool {
	if res := ft.node.Decl.Type.Results; res != nil {
		for _, field := range res.List {
			for _, name := range field.Names {
				if obj := ft.info.Defs[name]; obj != nil && ft.tainted[obj] {
					return true
				}
			}
		}
	}
	found := false
	ast.Inspect(ft.node.Decl.Body, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, r := range v.Results {
				found = found || ft.exprTainted(r)
			}
		}
		return !found
	})
	return found
}

// forEachCall visits every call expression of the body (literal bodies
// included; go and defer statements excluded — they do not run at the
// call site's program point) with its resolved callee ID and arguments.
func (n *FuncNode) forEachCall(visit func(call *ast.CallExpr, calleeID string)) {
	skip := map[ast.Node]bool{}
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.GoStmt:
			skip[v.Call] = true
		case *ast.DeferStmt:
			skip[v.Call] = true
		case *ast.CallExpr:
			if fn := calleeFunc(n.Pkg.Info, v); fn != nil && !skip[v] {
				visit(v, FuncID(fn))
			}
		}
		return true
	})
}

// taintReturnSummaries computes, to a module-wide fixed point, the set
// of functions whose return value may carry taint originating at a
// source call (isSource, by callee ID).
func taintReturnSummaries(g *CallGraph, isSource func(calleeID string) bool) map[string]bool {
	returns := map[string]bool{}
	callTaints := func(id string) bool { return isSource(id) || returns[id] }
	ids := g.sortedNodeIDs()
	for changed := true; changed; {
		changed = false
		for _, id := range ids {
			if returns[id] {
				continue
			}
			ft := newFuncTaint(g.Nodes[id], nil, callTaints)
			if ft.returnsTainted() {
				returns[id] = true
				changed = true
			}
		}
	}
	return returns
}

// paramFlow records, per function and parameter position, whether a
// value passed there may reach the analyzer's sink.
type paramFlow map[string][]bool

func (pf paramFlow) flows(id string, idx int) bool {
	s := pf[id]
	return idx >= 0 && idx < len(s) && s[idx]
}

// paramObjects returns the declared parameter objects in signature
// order, flattening grouped fields (a, b int).
func paramObjects(info *types.Info, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			out = append(out, info.Defs[name])
		}
		if len(field.Names) == 0 {
			out = append(out, nil) // unnamed parameter: nothing can flow
		}
	}
	return out
}

// taintedArgs visits every call argument of the solved function that
// carries taint into a parameter pf records as flowing onward.
func (ft *funcTaint) taintedArgs(pf paramFlow, visit func(arg ast.Expr, calleeID string, i int)) {
	ft.node.forEachCall(func(call *ast.CallExpr, calleeID string) {
		for i, arg := range call.Args {
			if pf.flows(calleeID, i) && ft.exprTainted(arg) {
				visit(arg, calleeID, i)
			}
		}
	})
}

// computeParamFlows iterates parameter-flow summaries to a module-wide
// fixed point: parameter i of f flows if, with that parameter seeded
// tainted, sinkHit reports the analyzer's sink inside f, or the taint is
// handed onward to a callee parameter the table so far records as
// flowing.
func computeParamFlows(g *CallGraph, callTaints func(string) bool, sinkHit func(*funcTaint) bool) paramFlow {
	pf := paramFlow{}
	ids := g.sortedNodeIDs()
	for changed := true; changed; {
		changed = false
		for _, id := range ids {
			n := g.Nodes[id]
			params := paramObjects(n.Pkg.Info, n.Decl)
			if len(params) == 0 {
				continue
			}
			cur := pf[id]
			if cur == nil {
				cur = make([]bool, len(params))
				pf[id] = cur
			}
			for i, p := range params {
				if cur[i] || p == nil {
					continue
				}
				ft := newFuncTaint(n, []types.Object{p}, callTaints)
				hit := sinkHit(ft)
				ft.taintedArgs(pf, func(ast.Expr, string, int) { hit = true })
				if hit {
					cur[i] = true
					changed = true
				}
			}
		}
	}
	return pf
}
