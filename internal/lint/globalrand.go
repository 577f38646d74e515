package lint

import "go/ast"

// GlobalRand forbids the package-level math/rand (and math/rand/v2)
// convenience functions. Those draw from a process-global, lock-shared
// source: the value each call returns depends on every other draw in
// the process, so any concurrency — worker count, pipeline depth, a
// background goroutine — reorders the stream and breaks bitwise
// reproducibility. Every random draw in this repo must flow through an
// owned *rand.Rand (one stream per task, split deterministically), which
// these same names invoke as methods; only the package-function forms
// are flagged. Constructors (rand.New, rand.NewSource, rand.NewPCG) are
// how owned streams are made and stay legal.
var GlobalRand = &Analyzer{
	Name: "globalrand",
	Doc:  "forbid process-global math/rand draws; use an owned *rand.Rand stream",
	Run:  runGlobalRand,
}

// globalRandFuncs are the package-level draw functions of math/rand and
// math/rand/v2 (constructors excluded). Referencing one at all — called
// or passed as a value — is a violation.
var globalRandFuncs = map[string]bool{
	// math/rand
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	// math/rand/v2 additions
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "UintN": true, "Uint64N": true, "N": true,
}

func runGlobalRand(pass *Pass) error {
	for _, pkg := range pass.Pkgs {
		pkg.Inspect(func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			path, name, _ := pkgSelector(pkg.Info, sel)
			if (path == "math/rand" || path == "math/rand/v2") && globalRandFuncs[name] {
				pass.Reportf(sel.Pos(),
					"rand.%s draws from the process-global source and is nondeterministic under concurrency; draw from an owned *rand.Rand stream",
					name)
			}
			return true
		})
	}
	return nil
}
