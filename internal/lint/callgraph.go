package lint

// The whole-module static call graph. Contracts like "everything that
// can block carries a context", "nothing blocks while a mutex is held"
// and "nothing on a hot path allocates" are properties of call
// *chains*, so they need reachability over the module, not pattern
// matches inside one body.
//
// The graph stays stdlib-only like the loader: nodes are the module's
// own function and method declarations, edges are statically resolvable
// calls (package functions, concrete and interface method calls), and
// function literals are tracked by attribution — a literal's calls and
// channel operations belong to the declared function that encloses it,
// which soundly covers the repo's dominant literal idioms (pool
// callbacks, pipelined-round goroutines, tape closures). Calls through
// function-typed values are recorded separately as callback sites: the
// callee is unknown at analysis time, which is exactly the property
// lockheld needs to flag them under a held lock. Nodes and edges key on
// FuncID, so cross-package edges resolve exactly.

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// A CallSite is one statically resolved call inside a function body.
type CallSite struct {
	CalleeID string
	Pos      token.Pos
}

// A FuncNode is one declared function or method of the module, with the
// body facts the contract analyzers consume. Function literals inside
// the body are attributed to it.
type FuncNode struct {
	ID   string
	Decl *ast.FuncDecl
	Pkg  *LoadedPackage

	// Calls holds every statically resolved call — module-local and
	// imported alike; traversals restrict to module nodes by lookup.
	Calls []CallSite
	// ChanOps are blocking channel operations: sends, receives, ranges
	// over channels, and selects without a default clause. A send or
	// receive that is the communication of a select *with* a default is
	// non-blocking by construction and is not recorded.
	ChanOps []token.Pos
	// CallbackCalls are calls through function-typed values the function
	// did not define itself — parameters and struct fields — i.e. calls
	// into caller-supplied code.
	CallbackCalls []CallSite
	// HasCtx reports whether a context reaches the function: a
	// context.Context parameter, a parameter or receiver whose struct
	// type carries a context.Context field (the Options / search.Context
	// idiom), or an *http.Request (context via r.Context()).
	HasCtx bool
	// Hot marks a //pruner:hotpath annotation on the declaration.
	Hot bool
}

// A CallGraph indexes the module's declared functions by ID.
type CallGraph struct {
	Nodes map[string]*FuncNode
}

// hotPathDirective marks a function as a hot-path root for the hotalloc
// analyzer: everything reachable from it must stay allocation-free.
const hotPathDirective = "pruner:hotpath"

// BuildCallGraph walks every declaration of the loaded packages once and
// assembles the module call graph.
func BuildCallGraph(pkgs []*LoadedPackage) *CallGraph {
	g := &CallGraph{Nodes: make(map[string]*FuncNode)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			hotLines := hotDirectiveLines(pkg.Fset, f)
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &FuncNode{ID: FuncID(obj), Decl: fd, Pkg: pkg}
				n.HasCtx = declHasCtx(pkg.Info, fd)
				pos := pkg.Fset.Position(fd.Pos())
				n.Hot = hotLines[pos.Line] || hotLines[pos.Line-1]
				collectBodyFacts(pkg.Info, fd, n)
				g.Nodes[n.ID] = n
			}
		}
	}
	return g
}

// hotDirectiveLines returns the line numbers carrying //pruner:hotpath
// comments in one file, so an annotation is honored whether it sits in
// the doc comment block or on the line directly above the declaration.
func hotDirectiveLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "//"+hotPathDirective) {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// carriesCtx reports whether a parameter of type t gives the function a
// context to forward: the context itself, a struct (or pointer to one)
// with a context.Context field, or an *http.Request.
func carriesCtx(t types.Type) bool {
	if namedID(t) == "context.Context" {
		return true
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if namedID(t) == "net/http.Request" {
		return true
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if namedID(st.Field(i).Type()) == "context.Context" {
			return true
		}
	}
	return false
}

// declHasCtx checks the declaration's receiver and parameters for a
// context (see carriesCtx).
func declHasCtx(info *types.Info, fd *ast.FuncDecl) bool {
	check := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		for _, field := range fl.List {
			if tv, ok := info.Types[field.Type]; ok && carriesCtx(tv.Type) {
				return true
			}
		}
		return false
	}
	return check(fd.Recv) || check(fd.Type.Params)
}

// callbackTarget classifies a dynamic call through v: it returns the
// value's name when it is caller-supplied (a parameter of the enclosing
// declaration or a struct field) and "" otherwise. Locally defined
// literals are not callbacks — their bodies are already attributed to
// the enclosing function.
func callbackTarget(v *types.Var, params map[types.Object]bool) string {
	if _, isFunc := v.Type().Underlying().(*types.Signature); isFunc && (v.IsField() || params[v]) {
		return v.Name()
	}
	return ""
}

// collectBodyFacts walks one declaration body — literals included, select
// communications handled for blocking semantics — and fills the node's
// call, channel-op, and callback lists.
func collectBodyFacts(info *types.Info, fd *ast.FuncDecl, n *FuncNode) {
	params := map[types.Object]bool{}
	addParams := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					params[obj] = true
				}
			}
		}
	}
	addParams(fd.Type.Params)

	var walk func(node ast.Node, nonBlockingComm map[ast.Node]bool)
	walk = func(node ast.Node, nonBlockingComm map[ast.Node]bool) {
		ast.Inspect(node, func(x ast.Node) bool {
			switch v := x.(type) {
			case *ast.CallExpr:
				switch obj := callee(info, v).(type) {
				case *types.Func:
					n.Calls = append(n.Calls, CallSite{CalleeID: FuncID(obj), Pos: v.Pos()})
				case *types.Var:
					if cb := callbackTarget(obj, params); cb != "" {
						n.CallbackCalls = append(n.CallbackCalls, CallSite{CalleeID: cb, Pos: v.Pos()})
					}
				}
			case *ast.SendStmt:
				if !nonBlockingComm[x] {
					n.ChanOps = append(n.ChanOps, v.Pos())
				}
			case *ast.UnaryExpr:
				if v.Op == token.ARROW && !nonBlockingComm[x] {
					n.ChanOps = append(n.ChanOps, v.Pos())
				}
			case *ast.RangeStmt:
				if tv, ok := info.Types[v.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						n.ChanOps = append(n.ChanOps, v.Pos())
					}
				}
			case *ast.SelectStmt:
				hasDefault := false
				for _, cl := range v.Body.List {
					if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
						hasDefault = true
					}
				}
				if !hasDefault {
					n.ChanOps = append(n.ChanOps, v.Pos())
				}
				// The communications themselves take the select's blocking
				// semantics: mark them so the generic cases above skip them
				// when a default clause makes the whole select a poll.
				nb := nonBlockingComm
				if hasDefault {
					nb = map[ast.Node]bool{}
					for k := range nonBlockingComm {
						nb[k] = true
					}
					for _, cl := range v.Body.List {
						if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
							markComm(cc.Comm, nb)
						}
					}
				}
				for _, cl := range v.Body.List {
					walk(cl, nb)
				}
				return false
			}
			return true
		})
	}
	walk(fd.Body, map[ast.Node]bool{})
}

// markComm records a select communication statement's send/receive nodes.
func markComm(comm ast.Stmt, set map[ast.Node]bool) {
	switch s := comm.(type) {
	case *ast.SendStmt:
		set[s] = true
	case *ast.ExprStmt:
		if u, ok := ast.Unparen(s.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			set[u] = true
		}
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			if u, ok := ast.Unparen(r).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				set[u] = true
			}
		}
	}
}

// Transitive computes the set of module functions for which direct holds
// or that reach such a function through module-local calls, excluding
// functions (and call targets) for which skip holds. It is the shared
// fixed-point behind "reaches a blocking operation" and friends.
func (g *CallGraph) Transitive(direct func(*FuncNode) bool, skip func(*FuncNode) bool) map[string]bool {
	result := map[string]bool{}
	ids := g.sortedNodeIDs()
	for _, id := range ids {
		n := g.Nodes[id]
		if (skip == nil || !skip(n)) && direct(n) {
			result[id] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, id := range ids {
			n := g.Nodes[id]
			if result[id] || (skip != nil && skip(n)) {
				continue
			}
			for _, c := range n.Calls {
				callee := g.Nodes[c.CalleeID]
				if callee == nil || (skip != nil && skip(callee)) {
					continue
				}
				if result[c.CalleeID] {
					result[id] = true
					changed = true
					break
				}
			}
		}
	}
	return result
}

// PathTo returns one shortest module-local call path from the function to
// a node satisfying direct — the explanation attached to reachability
// diagnostics ("Tune → plan → Measurer.Measure"). The final element is
// the direct node's ID; a nil return means no path exists. Functions
// for which skip holds are neither goals nor expanded.
func (g *CallGraph) PathTo(from string, direct func(*FuncNode) bool, skip func(*FuncNode) bool) []string {
	live := func(id string) *FuncNode {
		if n := g.Nodes[id]; n != nil && (skip == nil || !skip(n)) {
			return n
		}
		return nil
	}
	return bfsPath(from,
		func(id string) bool { n := live(id); return n != nil && direct(n) },
		func(id string) []string {
			n := live(id)
			if n == nil {
				return nil
			}
			// Deterministic expansion order: call sites in source order.
			next := make([]string, 0, len(n.Calls))
			for _, c := range n.Calls {
				if g.Nodes[c.CalleeID] != nil {
					next = append(next, c.CalleeID)
				}
			}
			return next
		})
}

// bfsPath returns the shortest path from start to the first node, in
// breadth-first order, that satisfies goal — start itself included — or
// nil. It is the one search-with-witness behind every "A reaches B via
// ..." explanation: call paths here, lock-order cycles in lockorder.
func bfsPath(start string, goal func(string) bool, next func(string) []string) []string {
	type item struct {
		id   string
		prev *item
	}
	queue := []*item{{id: start}}
	visited := map[string]bool{start: true}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if goal(it.id) {
			var path []string
			for ; it != nil; it = it.prev {
				path = append(path, it.id)
			}
			slices.Reverse(path)
			return path
		}
		for _, id := range next(it.id) {
			if !visited[id] {
				visited[id] = true
				queue = append(queue, &item{id: id, prev: it})
			}
		}
	}
	return nil
}

// sortedNodeIDs returns the graph's node IDs in stable order, for
// deterministic analyzer traversals.
func (g *CallGraph) sortedNodeIDs() []string {
	ids := make([]string, 0, len(g.Nodes))
	for id := range g.Nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
