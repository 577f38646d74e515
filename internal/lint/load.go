package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// A LoadedPackage is one target package, parsed and type-checked from
// source, ready to be handed to analyzers.
type LoadedPackage struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Inspect walks every file of the package in order (see ast.Inspect).
func (p *LoadedPackage) Inspect(visit func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, visit)
	}
}

// Load resolves patterns with `go list -deps -export -json`, then parses
// and type-checks every matched (non-dependency) package from source.
// Imports — stdlib and intra-module alike — are satisfied from the
// compiler's export data, which `-export` guarantees is materialized in
// the build cache; no golang.org/x/tools machinery is involved.
func Load(patterns []string) ([]*LoadedPackage, error) {
	pkgs, err := goList(patterns)
	if err != nil {
		return nil, err
	}

	// Export data for every dependency, keyed by import path. Identity
	// entries of ImportMap are omitted by go list; merge the explicit
	// ones (vendoring, test variants) on top.
	exports := make(map[string]string, len(pkgs))
	importMap := make(map[string]string)
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		for from, to := range p.ImportMap {
			importMap[from] = to
		}
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports, importMap)

	var out []*LoadedPackage
	for _, p := range pkgs {
		if p.DepOnly || p.Standard {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		lp, err := CheckPackage(fset, p.ImportPath, p.Dir, p.GoFiles, imp)
		if err != nil {
			return nil, err
		}
		out = append(out, lp)
	}
	return out, nil
}

// exportImporter builds a types.Importer that satisfies imports from
// compiler export data files (as produced by `go list -export`), the
// stdlib-only replacement for x/tools' gcexportdata machinery.
func exportImporter(fset *token.FileSet, exports, importMap map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q (is the package listed?)", path)
		}
		return os.Open(exp)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// goList shells out to the go tool for package metadata and export data.
func goList(patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// CheckPackage parses the named files (comments preserved — suppression
// directives live there) and type-checks them as one package. It is the
// single type-checking path for both the driver and the fixture test
// harness.
func CheckPackage(fset *token.FileSet, importPath, dir string, goFiles []string, imp types.Importer) (*LoadedPackage, error) {
	files := make([]*ast.File, 0, len(goFiles))
	for _, name := range goFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []string
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			typeErrs = append(typeErrs, err.Error())
		},
	}
	tpkg, _ := conf.Check(importPath, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s:\n  %s",
			importPath, strings.Join(typeErrs, "\n  "))
	}
	return &LoadedPackage{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}
