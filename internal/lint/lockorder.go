package lint

// LockOrder builds the whole-module lock-order graph and rejects
// cycles. lockheld guards what happens *inside* one critical section;
// this analyzer guards the relationship *between* them, over the same
// walk of critical sections (lockwalk.go): if
// goroutine 1 acquires A then B while goroutine 2 acquires B then A,
// each can park forever holding the other's next lock. The module's
// mutex population (store index, job table, measurer registry, metrics
// registry) is exactly the shape where such inversions creep in
// through helpers, so edges are interprocedural:
// locking A and then calling a function that transitively acquires B
// is an A→B edge like a direct nested lock.
//
// Mutexes are keyed by field identity — "pkg.Type.field" for a mutex
// field, "pkg.var" for a package-level mutex — so every instance of a
// struct shares one node, the conservative choice for a global order.
// Local mutexes (and embedded ones reached through the enclosing
// struct's method set) have no stable identity and are skipped. Cycles
// are reported once, at the smallest-keyed node, with a PathTo-style
// shortest witness chain per edge.

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "mutex acquisitions must admit one global order: no lock-order cycles across the module",
	Run:  runLockOrder,
}

// mutexKey derives the stable identity of a locked mutex expression:
// the owning named type plus field name, or the package-level variable.
// ok is false for identities the analysis cannot name (locals).
func mutexKey(info *types.Info, x ast.Expr) (string, bool) {
	var id *ast.Ident
	switch e := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			v, ok := sel.Obj().(*types.Var)
			if !ok || !v.IsField() {
				return "", false
			}
			recv := sel.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if owner := namedID(recv); owner != "" {
				return owner + "." + v.Name(), true
			}
			return "", false
		}
		id = e.Sel // qualified package-level mutex: pkg.Mu
	case *ast.Ident:
		id = e
	default:
		return "", false
	}
	if v, ok := info.Uses[id].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return v.Pkg().Path() + "." + v.Name(), true
	}
	return "", false
}

// lockOrderEdge is one "A acquired before B" observation with its
// witness: the position of the second acquisition (or of the call that
// performs it) inside fn, plus the callee chain when transitive.
type lockOrderEdge struct {
	from, to string
	pos      token.Pos
	fn       *FuncNode
	viaCall  string // callee ID when the acquisition is transitive
}

func edgeKey(from, to string) string { return from + "\x00" + to }

func runLockOrder(pass *Pass) error {
	g := pass.Graph()
	ids := g.sortedNodeIDs()

	// Acquisition summaries by identity key: direct(f) is what f's own
	// body locks (anywhere, not just at statement level); acq(f) =
	// direct(f) ∪ acq(g) for every module-local callee g, to a fixed
	// point.
	direct := map[string]map[string]bool{}
	acq := map[string]map[string]bool{}
	for _, id := range ids {
		n := g.Nodes[id]
		direct[id], acq[id] = map[string]bool{}, map[string]bool{}
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				if mutex, acquires, ok := lockCall(n.Pkg.Info, call); ok && acquires {
					if key, ok := mutexKey(n.Pkg.Info, mutex); ok {
						direct[id][key], acq[id][key] = true, true
					}
				}
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, id := range ids {
			for _, c := range g.Nodes[id].Calls {
				for k := range acq[c.CalleeID] {
					if !acq[id][k] {
						acq[id][k] = true
						changed = true
					}
				}
			}
		}
	}

	// Edge collection: inside every critical section, each acquisition —
	// direct or through a call — under a held mutex is a held→next
	// edge. The first witness found (functions by ID, statements in
	// source order) is the one reported.
	edges := map[string]*lockOrderEdge{}
	addEdge := func(e *lockOrderEdge) {
		if k := edgeKey(e.from, e.to); edges[k] == nil {
			edges[k] = e
		}
	}
	for _, id := range ids {
		n := g.Nodes[id]
		info := n.Pkg.Info
		lockRegions(n, func(r lockRegion) {
			var held []string
			for _, x := range r.Held {
				if h, ok := mutexKey(info, x); ok {
					held = append(held, h)
				}
			}
			if r.Acquires != nil {
				if mk, ok := mutexKey(info, r.Acquires); ok {
					for _, h := range held {
						if h != mk {
							addEdge(&lockOrderEdge{from: h, to: mk, pos: r.Stmt.Pos(), fn: n})
						}
					}
				}
				return
			}
			for _, call := range callsAt(r) {
				fn := calleeFunc(info, call)
				if fn == nil {
					continue
				}
				calleeID := FuncID(fn)
				acquired := make([]string, 0, len(acq[calleeID]))
				for k := range acq[calleeID] {
					acquired = append(acquired, k)
				}
				sort.Strings(acquired)
				for _, h := range held {
					for _, k := range acquired {
						addEdge(&lockOrderEdge{from: h, to: k, pos: call.Pos(), fn: n, viaCall: calleeID})
					}
				}
			}
		})
	}

	// Cycle detection over the order graph: for each key (smallest
	// first), search for the shortest path back to itself; a cycle is
	// reported once, anchored at its smallest key.
	var edgeKeys []string
	for k := range edges {
		edgeKeys = append(edgeKeys, k)
	}
	sort.Strings(edgeKeys)
	adj := map[string][]string{}
	var keys []string
	for _, k := range edgeKeys {
		e := edges[k]
		adj[e.from] = append(adj[e.from], e.to)
		keys = append(keys, e.from, e.to)
	}
	sort.Strings(keys)
	for _, start := range slices.Compact(keys) {
		// The path start → … → k with an edge k → start is the cycle
		// without its closing repeat; a self-edge yields just [start].
		cycle := bfsPath(start,
			func(k string) bool { return slices.Contains(adj[k], start) },
			func(k string) []string { return adj[k] })
		if cycle != nil && slices.Min(cycle) == start {
			reportLockCycle(pass, edges, direct, cycle)
		}
	}
	return nil
}

// callsAt returns the calls that run at the region's program point:
// those in the statement proper, excluding function-literal bodies and
// the calls of go and defer statements themselves (their arguments are
// evaluated here; the call is not).
func callsAt(r lockRegion) []*ast.CallExpr {
	var calls []*ast.CallExpr
	skip := map[ast.Node]bool{}
	ast.Inspect(r.Stmt, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.GoStmt:
			skip[v.Call] = true
		case *ast.DeferStmt:
			skip[v.Call] = true
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if !skip[v] && r.Contains(v.Pos()) {
				calls = append(calls, v)
			}
		}
		return true
	})
	return calls
}

// reportLockCycle renders one cycle with per-edge witnesses and the
// shortest call chain for transitive acquisitions.
func reportLockCycle(pass *Pass, edges map[string]*lockOrderEdge, direct map[string]map[string]bool, cycle []string) {
	describe := func(e *lockOrderEdge) string {
		at := pass.Fset.Position(e.pos)
		where := shortFuncID(e.fn.ID) + " at " + trimPathPrefix(at.String())
		if e.viaCall == "" {
			return where
		}
		// PathTo-style witness: the call chain from the callee to the
		// function that locks the target directly.
		path := pass.Graph().PathTo(e.viaCall, func(n *FuncNode) bool {
			return direct[n.ID][e.to]
		}, nil)
		var hops []string
		for _, id := range path {
			hops = append(hops, shortFuncID(id))
		}
		if len(hops) == 0 {
			hops = []string{shortFuncID(e.viaCall)}
		}
		return where + " via " + strings.Join(hops, " -> ")
	}

	var chain, wits []string
	first := edges[edgeKey(cycle[0], cycle[1%len(cycle)])]
	if len(cycle) == 1 {
		e := edges[edgeKey(cycle[0], cycle[0])]
		pass.Reportf(e.pos, "potential deadlock: %s relocks %s already held (%s)",
			shortFuncID(e.fn.ID), cycle[0], describe(e))
		return
	}
	for i := range cycle {
		from, to := cycle[i], cycle[(i+1)%len(cycle)]
		e := edges[edgeKey(from, to)]
		chain = append(chain, from)
		wits = append(wits, from+" -> "+to+" in "+describe(e))
	}
	chain = append(chain, cycle[0])
	pass.Reportf(first.pos,
		"potential deadlock: lock-order cycle %s (%s); acquire these mutexes in one global order",
		strings.Join(chain, " -> "), strings.Join(wits, "; "))
}

// trimPathPrefix shortens an absolute position to its final two path
// elements so witness strings stay readable and machine-independent.
func trimPathPrefix(pos string) string {
	slash := strings.LastIndex(pos, "/")
	if slash < 0 {
		return pos
	}
	prev := strings.LastIndex(pos[:slash], "/")
	return pos[prev+1:]
}
