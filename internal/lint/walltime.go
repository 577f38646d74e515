package lint

import (
	"go/ast"
	"path"
)

// WallTime forbids reading the wall clock in the deterministic layers.
// Tuning sessions carry their own simulated clock (internal/simulator's
// Clock) precisely so that a session replays bit-for-bit; a time.Now in
// a scoring or search path would thread real time back into results.
// Timing real work is the job of the measurement boundary — server,
// measure, and the cmd binaries — where wall time is the measurement.
var WallTime = &Analyzer{
	Name: "walltime",
	Doc:  "forbid time.Now/Since/Sleep and friends in deterministic packages; timing belongs to server, measure, and cmd",
	Run:  runWallTime,
}

// deterministicPkgs are the final import-path elements of the layers
// whose outputs must be pure functions of their inputs. time.Duration
// and friends remain fine everywhere — only clock reads are flagged.
var deterministicPkgs = map[string]bool{
	"tuner": true, "search": true, "nn": true, "costmodel": true,
	"schedule": true, "simulator": true, "features": true, "analyzer": true,
	// obs is the clock-injection seam itself: its one RealClock read
	// carries the single reasoned suppression; everything else in the
	// package must go through an injected Clock like any other
	// deterministic layer.
	"obs": true,
}

// wallClockFuncs are the time functions that touch the real clock —
// the one table walltime and clocktaint both read. True marks the ones
// that return a reading (clocktaint's taint sources); the rest only
// wait on the clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": false, "After": false, "AfterFunc": false, "Tick": false,
	"NewTimer": false, "NewTicker": false,
}

func runWallTime(pass *Pass) error {
	for _, pkg := range pass.Pkgs {
		if !deterministicPkgs[path.Base(pkg.ImportPath)] {
			continue
		}
		pkg.Inspect(func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			from, name, _ := pkgSelector(pkg.Info, sel)
			if _, clock := wallClockFuncs[name]; clock && from == "time" {
				pass.Reportf(sel.Pos(),
					"time.%s reads the wall clock inside deterministic package %q; use the session's simulated clock, or move timing to server/measure/cmd",
					name, pkg.Types.Name())
			}
			return true
		})
	}
	return nil
}
