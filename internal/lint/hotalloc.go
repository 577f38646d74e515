package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc keeps the draft loop's inner kernels allocation-free. The
// cost model scores thousands of candidate programs per tuning round;
// the frozen forward path runs once per candidate, so a single
// interface boxing or closure capture inside it turns into megabytes of
// garbage per round and a GC pause in the middle of the latency budget.
// Functions reachable from a //pruner:hotpath annotation must therefore
// avoid the constructs the compiler turns into heap allocations:
//
//   - function literals that capture variables of the enclosing
//     function (the captured frame escapes; capture-free literals are
//     static and stay exempt),
//   - implicit interface conversions at call arguments and explicit
//     conversions to interface types (boxing),
//   - any fmt call and non-constant string concatenation,
//   - append without visible preallocation (the destination is neither
//     a make with explicit capacity nor a re-sliced [:0] buffer),
//   - map construction (make or literal).
//
// Arena growth is deliberately legal: make of a slice is amortized by
// the grow-only Scratch buffers, and panic arguments are exempt — a
// panic path allocates once and then the process is done caring.
// The static gate is cross-checked dynamically by testing.AllocsPerRun
// tests over the same kernels.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "no heap-allocating constructs in functions reachable from //pruner:hotpath roots",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	g := pass.Graph()

	// BFS from the annotated roots, recording which root first reached
	// each function so diagnostics can explain why a function is hot.
	rootOf := map[string]string{}
	var queue []string
	for _, id := range g.sortedNodeIDs() {
		if g.Nodes[id].Hot {
			rootOf[id] = id
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, c := range g.Nodes[id].Calls {
			if g.Nodes[c.CalleeID] != nil && rootOf[c.CalleeID] == "" {
				rootOf[c.CalleeID] = rootOf[id]
				queue = append(queue, c.CalleeID)
			}
		}
	}

	for _, id := range g.sortedNodeIDs() {
		if root := rootOf[id]; root != "" {
			checkHotFunc(pass, g.Nodes[id], shortFuncID(root))
		}
	}
	return nil
}

// checkHotFunc walks one hot function's body and reports every
// allocating construct outside panic arguments.
func checkHotFunc(pass *Pass, n *FuncNode, root string) {
	info := n.Pkg.Info
	fd := n.Decl

	// Positions inside panic(...) arguments are exempt.
	var panicArgs [][2]token.Pos
	ast.Inspect(fd.Body, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok && builtinCall(info, call) == "panic" {
			for _, a := range call.Args {
				panicArgs = append(panicArgs, [2]token.Pos{a.Pos(), a.End()})
			}
		}
		return true
	})
	exempt := func(pos token.Pos) bool {
		for _, r := range panicArgs {
			if r[0] <= pos && pos < r[1] {
				return true
			}
		}
		return false
	}

	// Destinations considered preallocated for append: variables whose
	// defining make(...) carries an explicit capacity argument.
	prealloc := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(x ast.Node) bool {
		asg, ok := x.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != len(asg.Rhs) {
			return true
		}
		for i, rhs := range asg.Rhs {
			lhs, ok := asg.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if makeWithCap(info, rhs) || resliceToZero(rhs) {
				if obj := objFor(info, lhs); obj != nil {
					prealloc[obj] = true
				}
			}
		}
		return true
	})

	report := func(pos token.Pos, format string, args ...any) {
		if !exempt(pos) {
			args = append(args, shortFuncID(n.ID), root)
			pass.Reportf(pos, format+" in %s, which is on a hot path (reachable from //pruner:hotpath root %s)", args...)
		}
	}

	ast.Inspect(fd.Body, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit:
			if name := capturedVar(info, fd, v); name != "" {
				report(v.Pos(), "function literal captures %q and its frame escapes to the heap; hoist the state into Scratch or pass it as a parameter", name)
			}
		case *ast.BinaryExpr:
			if v.Op == token.ADD && isStringExpr(info, v) && info.Types[v].Value == nil {
				report(v.Pos(), "string concatenation allocates")
			}
		case *ast.CompositeLit:
			if isMapExpr(info, v) {
				report(v.Pos(), "map literal allocates")
			}
		case *ast.CallExpr:
			checkHotCall(info, v, prealloc, report)
		}
		return true
	})
}

// checkHotCall classifies one call expression in a hot function:
// conversions to interfaces, builtin make-map / bare append, fmt calls,
// and implicit boxing at interface-typed parameters.
func checkHotCall(info *types.Info, call *ast.CallExpr, prealloc map[types.Object]bool, report func(token.Pos, string, ...any)) {
	// Explicit conversion T(x) with T an interface type.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if isInterface(tv.Type) && len(call.Args) == 1 && !isInterfaceExpr(info, call.Args[0]) {
			report(call.Pos(), "conversion to interface type boxes the value")
		}
		return
	}

	switch obj := callee(info, call).(type) {
	case *types.Builtin:
		// Builtins: make(map[...]) and append without preallocation.
		if len(call.Args) == 0 {
			return
		}
		switch obj.Name() {
		case "make":
			if isMapExpr(info, call.Args[0]) {
				report(call.Pos(), "make(map) allocates")
			}
		case "append":
			if !appendPreallocated(info, call.Args[0], prealloc) {
				report(call.Pos(), "append without visible preallocation can reallocate; size the buffer with make(_, _, cap) or reuse a [:0] slice")
			}
		}
		return
	case *types.Func:
		// fmt anywhere on a hot path means formatting machinery and boxing.
		if obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			report(call.Pos(), "fmt.%s allocates (formatting state and boxed operands)", obj.Name())
			return
		}
	}

	// Implicit boxing: non-interface arguments bound to interface params.
	sig, ok := typeOf(info, call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no per-element boxing here
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if isInterface(pt) && !isInterfaceExpr(info, arg) && !isNilExpr(info, arg) {
			report(arg.Pos(), "argument boxed into interface parameter")
		}
	}
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		return tv.Type.Underlying()
	}
	return nil
}

func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isInterfaceExpr(info *types.Info, e ast.Expr) bool {
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		return isInterface(tv.Type)
	}
	return false
}

func isNilExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}

func isStringExpr(info *types.Info, e ast.Expr) bool {
	t := typeOf(info, e)
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// makeWithCap reports a make call with an explicit capacity argument:
// make([]T, n, cap).
func makeWithCap(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	return ok && len(call.Args) == 3 && builtinCall(info, call) == "make"
}

// resliceToZero reports buf[:0] — reuse of an existing buffer's storage.
func resliceToZero(e ast.Expr) bool {
	s, ok := ast.Unparen(e).(*ast.SliceExpr)
	if !ok || s.Low != nil || s.High == nil {
		return false
	}
	lit, ok := s.High.(*ast.BasicLit)
	return ok && lit.Value == "0"
}

// appendPreallocated reports whether the destination of an append is
// visibly preallocated: a variable assigned from make-with-capacity or a
// [:0] reslice, or a [:0] reslice written inline at the call.
func appendPreallocated(info *types.Info, dst ast.Expr, prealloc map[types.Object]bool) bool {
	if resliceToZero(dst) {
		return true
	}
	if id, ok := ast.Unparen(dst).(*ast.Ident); ok {
		if obj := objFor(info, id); obj != nil && prealloc[obj] {
			return true
		}
	}
	return false
}

// capturedVar returns the name of one variable of the enclosing function
// captured by the literal, or "" when the literal is capture-free.
// Package-level variables are not captures (no frame escapes for them).
func capturedVar(info *types.Info, fd *ast.FuncDecl, lit *ast.FuncLit) string {
	name := ""
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		pos := v.Pos()
		declaredInLit := lit.Pos() <= pos && pos < lit.End()
		declaredInFunc := fd.Pos() <= pos && pos < fd.End()
		if declaredInFunc && !declaredInLit {
			name = id.Name
		}
		return true
	})
	return name
}
