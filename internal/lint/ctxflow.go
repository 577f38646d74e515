package lint

import "go/ast"

// CtxFlow enforces cancellation plumbing over the call graph. A tuning
// session can spend minutes inside one batch measurement; the only
// reason DELETE /v1/jobs or SIGTERM can stop it is that a context flows
// unbroken from the daemon boundary down to Measurer.Measure. Two rules
// keep that chain intact as the service layer grows:
//
//  1. Any function that transitively reaches a blocking operation — a
//     measurement dispatch, outbound HTTP, a blocking channel
//     operation, a timer — must accept a context: a context.Context
//     parameter, a parameter or receiver struct carrying one (the
//     Options / search.Context idiom), or an *http.Request.
//  2. context.Background() and context.TODO() are forbidden below the
//     cmd/ and test boundary: a library that mints its own root context
//     has disconnected its callees from cancellation. The daemons mint
//     roots; everything beneath forwards.
//
// Binaries (package main) and test files sit outside the boundary, and
// the two infrastructure packages — internal/parallel (bounded CPU
// fan-out; cancellation happens at the round boundaries above it) and
// internal/lint (build-time tooling) — are exempt and absorb
// propagation.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "functions reaching a blocking operation must accept and forward a context.Context; no context.Background/TODO below cmd",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	g := pass.Graph()
	skip := func(n *FuncNode) bool {
		return mainOrTestPkg(n.Pkg) || infraPkg(n.Pkg)
	}
	blocks := directlyBlocking(false)
	blocking := g.Transitive(blocks, skip)

	for _, id := range g.sortedNodeIDs() {
		n := g.Nodes[id]
		if !blocking[id] || n.HasCtx || skip(n) {
			continue
		}
		if name := n.Decl.Name.Name; name == "main" || name == "init" {
			continue
		}
		path := g.PathTo(id, blocks, skip)
		pass.Reportf(n.Decl.Pos(),
			"%s reaches a blocking operation (%s) but accepts no context.Context; plumb ctx through so cancellation can interrupt it",
			n.Decl.Name.Name, describeBlockingPath(g, path, false))
	}

	// Rule 2: no fresh root contexts below the binary boundary.
	for _, pkg := range pass.Pkgs {
		if mainOrTestPkg(pkg) || infraPkg(pkg) {
			continue
		}
		pkg.Inspect(func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				path, name, _ := pkgSelector(pkg.Info, call.Fun)
				if path == "context" && (name == "Background" || name == "TODO") {
					pass.Reportf(call.Pos(),
						"context.%s mints a fresh root below the cmd boundary, disconnecting callees from cancellation; accept and forward the caller's ctx instead",
						name)
				}
			}
			return true
		})
	}
	return nil
}
