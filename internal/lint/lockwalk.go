package lint

// The one walk over critical sections, consumed by lockheld (what
// happens inside a section) and lockorder (how sections nest). Critical
// sections are recognized syntactically — x.Lock() / x.RLock() until
// the matching x.Unlock() / x.RUnlock() in the same statement list, or
// to the end of the list after defer x.Unlock() — and the held set
// carries into every nested statement list, each of which then tracks
// its own acquisitions and releases.

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// lockMethods classifies the sync lock/unlock methods by function ID;
// true acquires, false releases.
var lockMethods = map[string]bool{
	"sync.Mutex.Lock":      true,
	"sync.RWMutex.Lock":    true,
	"sync.RWMutex.RLock":   true,
	"sync.Mutex.Unlock":    false,
	"sync.RWMutex.Unlock":  false,
	"sync.RWMutex.RUnlock": false,
}

// lockCall resolves a call to a sync lock or unlock method: the mutex
// expression (x of x.Lock()) and whether the call acquires it; ok is
// false for anything else.
func lockCall(info *types.Info, call *ast.CallExpr) (mutex ast.Expr, acquires, ok bool) {
	fn := calleeFunc(info, call)
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if fn == nil || !isSel {
		return nil, false, false
	}
	acquires, ok = lockMethods[FuncID(fn)]
	return sel.X, acquires, ok
}

// lockStmt resolves a statement-level x.Lock() or x.Unlock().
func lockStmt(info *types.Info, stmt ast.Stmt) (mutex ast.Expr, acquires, ok bool) {
	if es, isExpr := stmt.(*ast.ExprStmt); isExpr {
		if call, isCall := ast.Unparen(es.X).(*ast.CallExpr); isCall {
			return lockCall(info, call)
		}
	}
	return nil, false, false
}

// A lockRegion is one statement that executes with mutexes held.
type lockRegion struct {
	// Held lists the mutex expressions held on entry to Stmt, in
	// acquisition order; it is never empty.
	Held []ast.Expr
	Stmt ast.Stmt
	// Acquires is the mutex Stmt itself locks, nil for any other
	// statement.
	Acquires ast.Expr
	// nested are the statement lists inside Stmt that the walk visits as
	// regions of their own.
	nested []ast.Node
}

// Contains reports whether pos lies in the statement proper — its
// expressions, conditions, initializers and communications — rather
// than in a nested statement list, so a fact is claimed by exactly one
// region.
func (r lockRegion) Contains(pos token.Pos) bool {
	if pos < r.Stmt.Pos() || pos >= r.Stmt.End() {
		return false
	}
	for _, b := range r.nested {
		if b.Pos() <= pos && pos < b.End() {
			return false
		}
	}
	return true
}

// lockRegions walks one function's statement lists and calls visit, in
// source order, for every statement that runs inside a critical section.
// Mutexes are tracked by printed expression ("s.mu"); a deferred unlock
// releases only at return, so the rest of its list stays in the section
// — the idiomatic pattern this walk spends most of its time inside.
func lockRegions(n *FuncNode, visit func(lockRegion)) {
	info := n.Pkg.Info
	var walkList func(stmts []ast.Stmt, inherited []ast.Expr)
	var walkStmt func(stmt ast.Stmt, held []ast.Expr)

	walkList = func(stmts []ast.Stmt, inherited []ast.Expr) {
		held := slices.Clone(inherited)
		for _, stmt := range stmts {
			mutex, acquires, ok := lockStmt(info, stmt)
			switch {
			case !ok:
				walkStmt(stmt, held)
			case acquires:
				if len(held) > 0 {
					visit(lockRegion{Held: held, Stmt: stmt, Acquires: mutex})
				}
				if heldIndex(held, mutex) < 0 {
					held = append(held, mutex)
				}
			default:
				if i := heldIndex(held, mutex); i >= 0 {
					held = slices.Delete(held, i, i+1)
				}
			}
		}
	}

	walkStmt = func(stmt ast.Stmt, held []ast.Expr) {
		// bodies are the statement lists nested directly in stmt; each
		// inherits the current held set and is excluded from stmt's own
		// region, which keeps everything else: conditions, initializers,
		// case expressions, select communications.
		var bodies [][]ast.Stmt
		var orElse ast.Stmt
		switch s := stmt.(type) {
		case *ast.LabeledStmt:
			walkStmt(s.Stmt, held)
			return
		case *ast.DeferStmt:
			if _, _, isLock := lockCall(info, s.Call); isLock {
				return // defer x.Unlock(): no region of its own
			}
		case *ast.BlockStmt:
			bodies = [][]ast.Stmt{s.List}
		case *ast.IfStmt:
			// An else branch is a block or another if statement (an
			// `else if` chain); either way it is a region of its own.
			bodies, orElse = [][]ast.Stmt{s.Body.List}, s.Else
		case *ast.ForStmt:
			bodies = [][]ast.Stmt{s.Body.List}
		case *ast.RangeStmt:
			bodies = [][]ast.Stmt{s.Body.List}
		case *ast.SwitchStmt:
			bodies = clauseBodies(s.Body)
		case *ast.TypeSwitchStmt:
			bodies = clauseBodies(s.Body)
		case *ast.SelectStmt:
			bodies = clauseBodies(s.Body)
		}
		if len(held) > 0 {
			r := lockRegion{Held: held, Stmt: stmt}
			for _, body := range bodies {
				for _, b := range body {
					r.nested = append(r.nested, b)
				}
			}
			if orElse != nil {
				r.nested = append(r.nested, orElse)
			}
			visit(r)
		}
		for _, body := range bodies {
			walkList(body, held)
		}
		if orElse != nil {
			walkStmt(orElse, held)
		}
	}

	walkList(n.Decl.Body.List, nil)
}

// clauseBodies returns the statement list of every case or
// communication clause of a switch or select body.
func clauseBodies(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, c := range body.List {
		switch cc := c.(type) {
		case *ast.CaseClause:
			out = append(out, cc.Body)
		case *ast.CommClause:
			out = append(out, cc.Body)
		}
	}
	return out
}

// heldIndex returns the position in held of the mutex printed like x,
// or -1.
func heldIndex(held []ast.Expr, x ast.Expr) int {
	want := types.ExprString(x)
	for i := len(held) - 1; i >= 0; i-- {
		if types.ExprString(held[i]) == want {
			return i
		}
	}
	return -1
}
