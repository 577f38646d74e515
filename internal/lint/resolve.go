package lint

// The resolver kit: the one place that answers "what does this call or
// selector refer to". Every analyzer matches on the answers — a callee
// object, an imported package's member, a stable function ID — rather
// than on syntax of its own, so two checks cannot disagree about what a
// piece of code names.

import (
	"go/ast"
	"go/types"
	"strings"
)

// callee resolves a call expression to the object it invokes, and the
// object's dynamic type is the call's kind: a *types.Func is a static
// call (package function, concrete, interface or generic method), a
// *types.Builtin is a builtin, and a *types.Var is a dynamic call
// through a function value (parameter, field, variable, or an element
// of one). Conversions and inline function literals resolve to nil —
// a literal's body is walked where it stands.
func callee(info *types.Info, call *ast.CallExpr) types.Object {
	fun := ast.Unparen(call.Fun)
	// Generic instantiation f[T](...) resolves through the index expr.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	var obj types.Object
	switch fun := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	if _, isType := obj.(*types.TypeName); isType {
		return nil
	}
	return obj
}

// calleeFunc is callee narrowed to static calls: the function or method
// object, or nil for anything else.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fn, _ := callee(info, call).(*types.Func)
	return fn
}

// builtinCall returns the name of the builtin e calls ("make",
// "append", "panic", ...), or "" when e is anything else.
func builtinCall(info *types.Info, e ast.Expr) string {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		if b, ok := callee(info, call).(*types.Builtin); ok {
			return b.Name()
		}
	}
	return ""
}

// pkgSelector resolves e as a qualified reference p.Name to a member of
// an imported package — called or used as a value, under any import
// alias — and returns the package's path and the member's name.
func pkgSelector(info *types.Info, e ast.Expr) (path, name string, ok bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	pkg, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", "", false
	}
	return pkg.Imported().Path(), sel.Sel.Name, true
}

// objFor resolves an identifier to the object it defines or uses.
func objFor(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// isMapExpr reports whether e has, or as a type expression denotes, a
// map type.
func isMapExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// FuncID returns the stable cross-package identifier of a function or
// method: "path/to/pkg.Name" for package functions,
// "path/to/pkg.Recv.Name" for methods (pointer receivers normalized to
// their element type, so (*T).M and T.M collide intentionally —
// contracts do not distinguish them). Interface methods use the
// interface's own named type as the receiver. Because each package is
// type-checked against export data, the same function is a distinct
// *types.Func in every importing package's universe; the printable ID
// is what makes cross-package call edges and callee tables resolve.
func FuncID(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if id := namedID(t); id != "" {
			return id + "." + fn.Name()
		}
		return t.String() + "." + fn.Name()
	}
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// namedID returns "path/to/pkg.Type" for a named type declared in a
// package, and "" for anything else (unnamed and universe types).
func namedID(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// shortFuncID strips the package path from a function ID for display:
// "pruner/internal/tuner.Tune" → "tuner.Tune".
func shortFuncID(id string) string {
	return id[strings.LastIndex(id, "/")+1:]
}
