package lint

// The shared blocking-operation model consumed by ctxflow and lockheld:
// which calls and statements can park a goroutine for an unbounded or
// externally-paced time. Both analyzers reason over the same leaf set so
// their verdicts cannot disagree about what "blocks"; they differ only
// in the contract they enforce around it (carry a context vs. do not
// hold a mutex).

import "strings"

// blockingCallees maps function IDs (see FuncID) to a short description
// used in diagnostics. These are the operations whose latency is paced
// by something outside this process: the measurement backend, the
// network, a timer. Mutex acquisition is deliberately absent — lock
// hold times are bounded by lockheld itself.
var blockingCallees = map[string]string{
	// The measurement boundary: a batch measurement is the single
	// longest operation in the system (it can run for minutes against a
	// remote fleet), which is why the Measurer interface takes a ctx.
	"pruner/internal/measure.Measurer.Measure": "Measurer.Measure",
	"pruner/internal/measure.Sim.Measure":      "Sim.Measure",
	"pruner/internal/measure.Fleet.Measure":    "Fleet.Measure",

	// Outbound HTTP.
	"net/http.Client.Do":  "http.Client.Do",
	"net/http.Client.Get": "http.Client.Get",
	"net/http.Get":        "http.Get",
	"net/http.Head":       "http.Head",
	"net/http.Post":       "http.Post",
	"net/http.PostForm":   "http.PostForm",

	// Serve loops and drains.
	"net/http.ListenAndServe":        "http.ListenAndServe",
	"net/http.Server.ListenAndServe": "http.Server.ListenAndServe",
	"net/http.Server.Serve":          "http.Server.Serve",
	"net/http.Server.Shutdown":       "http.Server.Shutdown",

	// Timers and subprocesses.
	"time.Sleep":                 "time.Sleep",
	"os/exec.Cmd.Run":            "exec.Cmd.Run",
	"os/exec.Cmd.Wait":           "exec.Cmd.Wait",
	"os/exec.Cmd.Output":         "exec.Cmd.Output",
	"os/exec.Cmd.CombinedOutput": "exec.Cmd.CombinedOutput",
}

// waitCallees block on goroutine coordination. They count as blocking
// for lockheld (a Wait under a mutex is a textbook deadlock shape) but
// not for ctxflow: a WaitGroup cannot be cancelled, so demanding a
// context for it would invite plumbing that cannot be honored.
var waitCallees = map[string]string{
	"sync.WaitGroup.Wait": "sync.WaitGroup.Wait",
	"sync.Cond.Wait":      "sync.Cond.Wait",
}

// blockingLeaf describes the call when it is a blocking leaf; waits
// selects whether goroutine joins count (lockheld) or not (ctxflow).
func blockingLeaf(c CallSite, waits bool) (string, bool) {
	desc, ok := blockingCallees[c.CalleeID]
	if !ok && waits {
		desc, ok = waitCallees[c.CalleeID]
	}
	return desc, ok
}

// directlyBlocking returns the "this function's own body can park the
// goroutine" predicate — a blocking channel operation or a leaf call —
// that Transitive and PathTo extend over the call graph.
func directlyBlocking(waits bool) func(*FuncNode) bool {
	return func(n *FuncNode) bool {
		if len(n.ChanOps) > 0 {
			return true
		}
		for _, c := range n.Calls {
			if _, ok := blockingLeaf(c, waits); ok {
				return true
			}
		}
		return false
	}
}

// describeBlockingPath renders a shortest call path ending in a blocking
// operation as "f → g → Measurer.Measure" (truncated in the middle when
// long). The final hop is the blocking leaf's own description when the
// path ends at a leaf call; a path ending in a direct channel operation
// names it instead.
func describeBlockingPath(g *CallGraph, path []string, waits bool) string {
	if len(path) == 0 {
		return "blocking operation"
	}
	var hops []string
	for _, id := range path {
		hops = append(hops, shortFuncID(id))
	}
	last := g.Nodes[path[len(path)-1]]
	leaf := "channel operation"
	if last != nil && len(last.ChanOps) == 0 {
		for _, c := range last.Calls {
			if desc, ok := blockingLeaf(c, waits); ok {
				leaf = desc
				break
			}
		}
	}
	hops = append(hops, leaf)
	if len(hops) > 5 {
		hops = append(hops[:2], append([]string{"…"}, hops[len(hops)-2:]...)...)
	}
	return strings.Join(hops, " → ")
}

// mainOrTestPkg reports packages outside the contract boundary: binaries
// (cmd/*, examples/*) own the process and its root context; test files
// never reach Load (go list GoFiles excludes them).
func mainOrTestPkg(pkg *LoadedPackage) bool {
	return pkg.Types.Name() == "main"
}

// infraPkg reports the two module packages whose job is to wrap blocking
// machinery behind a non-blocking contract of their own: the worker pool
// (its semaphore never blocks acquisition and its joins are bounded by
// the pool's own workers) and the lint framework itself (a build-time
// tool whose `go list` subprocess is bounded by the build, not a serving
// path). Their internals are exempt from ctxflow and absorb propagation:
// calling parallel.ForEach does not make the caller "blocking".
func infraPkg(pkg *LoadedPackage) bool {
	path := pkg.ImportPath
	return strings.HasSuffix(path, "internal/parallel") || strings.HasSuffix(path, "internal/lint")
}
