package lint

import (
	"go/ast"
	"strings"
)

// RawGo forbids bare `go` statements outside internal/parallel. The
// shared pool is the one place allowed to spawn workers: it pins worker
// count, panic propagation, and — critically — the rule that results
// are committed in submission order no matter which goroutine finishes
// first. A stray goroutine elsewhere reintroduces scheduling order as
// an input to the computation. The handful of legitimate launch sites
// (HTTP serve loops, the tuner's single in-flight measurement, shutdown
// waiters) carry //pruner:allow rawgo directives with written reasons.
var RawGo = &Analyzer{
	Name: "rawgo",
	Doc:  "forbid bare go statements outside internal/parallel; fan-out goes through the shared pool",
	Run:  runRawGo,
}

func runRawGo(pass *Pass) error {
	for _, pkg := range pass.Pkgs {
		if strings.HasSuffix(pkg.ImportPath, "internal/parallel") {
			continue
		}
		pkg.Inspect(func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"bare go statement outside internal/parallel; route fan-out through the shared pool, or add //pruner:allow rawgo — <reason> if this site must own its goroutine")
			}
			return true
		})
	}
	return nil
}
