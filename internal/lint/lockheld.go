package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// LockHeld forbids blocking while a sync.Mutex or RWMutex is held —
// deadlock prevention by construction for the service layers. The repo's
// locks guard in-memory state (the store index, the job table, the
// metrics registry) and are meant to be held for nanoseconds; a
// measurement dispatch, an HTTP round trip, a channel
// operation, or a call into caller-supplied code inside such a critical
// section turns a worker hiccup into a frozen daemon: every other
// goroutine piles up on the mutex, including the ones that would have
// drained the blockage.
//
// Critical sections come from the shared walk (lockwalk.go), and the
// "may this block" verdict for every call inside one is computed
// transitively over the module call graph, so a lock-holding function
// cannot launder a blocking operation through a helper. Calls of
// function-typed parameters and fields are flagged too: the callee is
// unknown at analysis time, which is precisely the hazard (it may well
// try to take the same lock).
var LockHeld = &Analyzer{
	Name: "lockheld",
	Doc:  "no blocking call, channel operation, or callback into caller-supplied code while a sync mutex is held",
	Run:  runLockHeld,
}

func runLockHeld(pass *Pass) error {
	g := pass.Graph()

	// mayBlock: the transitive "can park this goroutine" summary. Unlike
	// ctxflow, nothing is exempt and goroutine joins count —
	// parallel.ForEach joining its helpers or lint shelling out to
	// `go list` under a lock would be exactly the bug this analyzer
	// exists to catch.
	blocks := directlyBlocking(true)
	mayBlock := g.Transitive(blocks, nil)

	for _, id := range g.sortedNodeIDs() {
		n := g.Nodes[id]
		lockRegions(n, func(r lockRegion) {
			locks := heldNames(r.Held)
			if r.Acquires != nil {
				if heldIndex(r.Held, r.Acquires) >= 0 {
					pass.Reportf(r.Stmt.Pos(),
						"%s is locked again while already held; self-deadlock", types.ExprString(r.Acquires))
				}
				return
			}
			for _, p := range n.ChanOps {
				if r.Contains(p) {
					pass.Reportf(p, "channel operation while %s is held; a full or empty channel freezes every goroutine contending for the lock", locks)
				}
			}
			for _, c := range n.CallbackCalls {
				if r.Contains(c.Pos) {
					pass.Reportf(c.Pos, "call into caller-supplied function %s while %s is held; unknown code must not run under a lock (it may relock it)", c.CalleeID, locks)
				}
			}
			for _, c := range n.Calls {
				if !r.Contains(c.Pos) {
					continue
				}
				if desc, ok := blockingLeaf(c, true); ok {
					pass.Reportf(c.Pos, "blocking call %s while %s is held", desc, locks)
				} else if mayBlock[c.CalleeID] {
					path := g.PathTo(c.CalleeID, blocks, nil)
					pass.Reportf(c.Pos, "call to %s while %s is held; it can block (%s)",
						shortFuncID(c.CalleeID), locks, describeBlockingPath(g, path, true))
				}
			}
		})
	}
	return nil
}

// heldNames renders the held mutex set for messages.
func heldNames(held []ast.Expr) string {
	names := make([]string, len(held))
	for i, x := range held {
		names[i] = types.ExprString(x)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
