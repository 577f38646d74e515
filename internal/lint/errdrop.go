package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrDrop forbids silently discarded error returns inside internal/...:
// a call used as a bare statement whose callee returns an error. The
// failure mode this guards is concrete for a tuning service — a dropped
// store write error means measured records vanish and the cost model
// silently trains on less data than the experiment log claims. Explicit
// discards (`_ = f()`) stay legal: they are visible in review and
// greppable, which is the entire ask.
//
// Print-family calls on in-memory writers are exempt by callee — fmt
// printing, strings.Builder and bytes.Buffer writes return errors only
// to satisfy interfaces and are documented never to fail. A deferred
// Close is likewise exempt: the idiom is cleanup on a path that already
// has an error in flight.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "no silently discarded error returns in internal packages; discard explicitly with _ = or handle it",
	Run:  runErrDrop,
}

// errDropExempt lists callees (by FuncID) whose error returns exist to
// satisfy io interfaces and are documented never to fail in-memory.
var errDropExempt = map[string]bool{
	"fmt.Print":    true,
	"fmt.Printf":   true,
	"fmt.Println":  true,
	"fmt.Fprint":   true,
	"fmt.Fprintf":  true,
	"fmt.Fprintln": true,

	"strings.Builder.Write":       true,
	"strings.Builder.WriteString": true,
	"strings.Builder.WriteByte":   true,
	"strings.Builder.WriteRune":   true,
	"bytes.Buffer.Write":          true,
	"bytes.Buffer.WriteString":    true,
	"bytes.Buffer.WriteByte":      true,
	"bytes.Buffer.WriteRune":      true,
}

func runErrDrop(pass *Pass) error {
	for _, pkg := range pass.Pkgs {
		if !strings.Contains(pkg.ImportPath, "/internal/") {
			continue
		}
		pkg.Inspect(func(x ast.Node) bool {
			switch s := x.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
					checkDroppedErr(pass, pkg.Info, call, false)
				}
			case *ast.DeferStmt:
				checkDroppedErr(pass, pkg.Info, s.Call, true)
				return false // the deferred call itself is the statement
			case *ast.GoStmt:
				checkDroppedErr(pass, pkg.Info, s.Call, false)
				return false
			}
			return true
		})
	}
	return nil
}

// checkDroppedErr reports a statement-position call that returns an
// error nobody looks at.
func checkDroppedErr(pass *Pass, info *types.Info, call *ast.CallExpr, deferred bool) {
	tv, ok := info.Types[call]
	if !ok || !returnsError(tv.Type) {
		return
	}
	fn := calleeFunc(info, call)
	name := "function value"
	if fn != nil {
		id := FuncID(fn)
		if errDropExempt[id] {
			return
		}
		if deferred && fn.Name() == "Close" {
			return
		}
		name = shortFuncID(id)
	}
	pass.Reportf(call.Pos(),
		"error returned by %s is silently dropped; handle it or discard explicitly with _ =", name)
}

// returnsError reports whether a call's result type includes error.
func returnsError(t types.Type) bool {
	if t == nil {
		return false
	}
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj() == types.Universe.Lookup("error")
}
