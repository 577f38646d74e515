package lint

// Exhaust keeps switches over the module's enum-like const sets honest.
// The repo leans on "stringly-typed with a blessed const set" enums —
// model kinds, tuning methods, job lifecycle states, measurer kinds,
// op kinds — and a switch that silently falls through when a new
// constant is added is exactly how a new model kind ships without a
// pretrained mapping or a new job state escapes the metrics gauge. The
// rule: a switch whose tag is a module-defined named type with a basic
// underlying and at least two package-level constants must either
// cover every declared constant or carry an explicit default clause
// (the author's signature that fallthrough is intended).

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

var Exhaust = &Analyzer{
	Name: "exhaust",
	Doc:  "switches over enum-like const sets must be exhaustive or carry an explicit default",
	Run:  runExhaust,
}

func runExhaust(pass *Pass) error {
	for _, pkg := range pass.Pkgs {
		pkg.Inspect(func(x ast.Node) bool {
			if sw, ok := x.(*ast.SwitchStmt); ok && sw.Tag != nil {
				checkSwitchExhaustive(pass, pkg, sw)
			}
			return true
		})
	}
	return nil
}

func checkSwitchExhaustive(pass *Pass, pkg *LoadedPackage, sw *ast.SwitchStmt) {
	tv, ok := pkg.Info.Types[sw.Tag]
	if !ok {
		return
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !sameModule(obj.Pkg().Path(), pkg.ImportPath) {
		return
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsBoolean != 0 {
		return
	}
	consts := enumConsts(pkg, obj.Pkg(), named)
	if len(consts) < 2 {
		return // one constant is a sentinel, not an enum
	}

	var caseVals []constant.Value
	for _, cl := range sw.Body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return // explicit default: the author signed off on fallthrough
		}
		for _, e := range cc.List {
			v, ok := pkg.Info.Types[e]
			if !ok || v.Value == nil {
				return // non-constant case: coverage is dynamic, stay silent
			}
			caseVals = append(caseVals, v.Value)
		}
	}

	var missing []string
	for _, c := range consts {
		covered := false
		for _, v := range caseVals {
			if constant.Compare(c.Val(), token.EQL, v) {
				covered = true
				break
			}
		}
		if !covered {
			missing = append(missing, c.Name())
		}
	}
	if len(missing) > 0 {
		pass.Reportf(sw.Pos(),
			"switch on %s is not exhaustive: missing %s (add the cases or an explicit default)",
			types.TypeString(named, func(p *types.Package) string { return p.Path() }),
			strings.Join(missing, ", "))
	}
}

// enumConsts returns the package-level constants of exactly the named
// type, sorted by name. For the package under analysis its own scope is
// used (unexported constants included); for sibling module packages the
// exported surface from export data is what a foreign switch could name
// anyway.
func enumConsts(pkg *LoadedPackage, declPkg *types.Package, named *types.Named) []*types.Const {
	scope := declPkg.Scope()
	if declPkg.Path() == pkg.ImportPath {
		scope = pkg.Types.Scope()
	}
	var out []*types.Const
	for _, name := range scope.Names() {
		if c, ok := scope.Lookup(name).(*types.Const); ok && types.Identical(c.Type(), named) {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// sameModule reports whether two import paths share a module, judged by
// first path segment — exact enough for a single-module tree and for
// the fixture harness, and it keeps stdlib enum types (reflect.Kind,
// token.Token) out of scope.
func sameModule(a, b string) bool {
	return firstSegment(a) == firstSegment(b)
}

func firstSegment(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}
