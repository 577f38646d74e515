package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapRange flags `range` over a map whose body performs an
// order-sensitive effect: appending to a slice, accumulating floats
// (float addition is not associative — iteration order changes the
// bits), sending on a channel, or invoking a callback value. Go
// randomizes map iteration order on purpose, so any of these makes the
// result depend on the run. The sanctioned idiom is to collect the keys,
// sort them, then loop over the sorted slice — an append whose target is
// sorted later in the same block is therefore not flagged.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc:  "flag order-sensitive effects inside range-over-map bodies; collect the keys, sort them, and range over the sorted slice",
	Run:  runMapRange,
}

func runMapRange(pass *Pass) error {
	for _, pkg := range pass.Pkgs {
		// Walk every statement list so each range-over-map can see the
		// statements that follow it (where the sanctioned sort lives).
		pkg.Inspect(func(n ast.Node) bool {
			var list []ast.Stmt
			switch n := n.(type) {
			case *ast.BlockStmt:
				list = n.List
			case *ast.CaseClause:
				list = n.Body
			case *ast.CommClause:
				list = n.Body
			default:
				return true
			}
			for i, stmt := range list {
				if rs, ok := stmt.(*ast.RangeStmt); ok && isMapExpr(pkg.Info, rs.X) {
					checkMapRange(pass, pkg.Info, rs, list[i+1:])
				}
			}
			return true
		})
	}
	return nil
}

// checkMapRange inspects one range-over-map statement; rest is the tail
// of the enclosing statement list after it.
func checkMapRange(pass *Pass, info *types.Info, rs *ast.RangeStmt, rest []ast.Stmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			// A nested range-over-map gets its own check (with its own
			// trailing-sort window); don't double-report its body here.
			if isMapExpr(info, n.X) {
				return false
			}
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"sends on a channel in map-iteration order; range over sorted keys instead")
		case *ast.AssignStmt:
			if isFloatAccumulation(info, n) {
				pass.Reportf(n.Pos(),
					"accumulates floating-point values in map-iteration order (float addition is not associative); range over sorted keys instead")
			}
		case *ast.CallExpr:
			// Only appends and dynamic calls are order-sensitive at this
			// level: compile-time-resolved calls, conversions and other
			// builtins are order-independent, and what they mutate is
			// caught by the cases above. An inline func literal's body is
			// walked right here, so its effects are flagged on their own.
			switch obj := callee(info, n).(type) {
			case *types.Builtin:
				if obj.Name() == "append" && len(n.Args) > 0 {
					if target := rootObject(info, n.Args[0]); target != nil && !sortedAfter(info, rest, target) {
						pass.Reportf(n.Pos(),
							"appends to %s in map-iteration order and never sorts it; collect keys and sort first", target.Name())
					}
				}
			case *types.Var:
				pass.Reportf(n.Pos(),
					"calls callback %s in map-iteration order; range over sorted keys instead", obj.Name())
			}
		}
		return true
	})
}

// isFloatAccumulation reports whether the assignment compounds onto a
// floating-point (or complex) accumulator: x += v, x -= v, x *= v,
// x /= v with float-typed x. Integer accumulation commutes exactly and
// is not flagged.
func isFloatAccumulation(info *types.Info, as *ast.AssignStmt) bool {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return false
	}
	for _, lhs := range as.Lhs {
		tv, ok := info.Types[lhs]
		if !ok {
			continue
		}
		if b, ok := tv.Type.Underlying().(*types.Basic); ok &&
			b.Info()&(types.IsFloat|types.IsComplex) != 0 {
			return true
		}
	}
	return false
}

// rootObject resolves the variable (or field) an expression ultimately
// names: x, s.field, xs[i] all reduce to a types.Object usable as an
// identity for "the same slice" across the append and the later sort.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return objFor(info, x)
		case *ast.SelectorExpr:
			return info.Uses[x.Sel]
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// sortedAfter reports whether any statement in rest sorts the target:
// a call to sort.* or slices.* mentioning the appended-to variable.
// That is the sanctioned shape — collect in arbitrary order, sort, then
// do the order-sensitive work over the sorted slice.
func sortedAfter(info *types.Info, rest []ast.Stmt, target types.Object) bool {
	found := false
	for _, stmt := range rest {
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			if p, _, _ := pkgSelector(info, call.Fun); p != "sort" && p != "slices" {
				return true
			}
			for _, arg := range call.Args {
				if mentionsObject(info, arg, target) {
					found = true
					return false
				}
			}
			return true
		})
	}
	return found
}

// mentionsObject reports whether the expression references the object
// anywhere (covers sort.Strings(keys), sort.Slice(keys, ...), and
// wrapper forms like sort.Sort(byLen(keys))).
func mentionsObject(info *types.Info, e ast.Expr, target types.Object) bool {
	var hit bool
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == target {
			hit = true
		}
		return !hit
	})
	return hit
}
