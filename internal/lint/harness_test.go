package lint

// The fixture harness: an analysistest in miniature. Each fixture
// package under testdata/src/<name> is parsed and type-checked (against
// real stdlib export data, same path as the driver), one analyzer runs,
// and the resulting diagnostics are diffed against `// want "regexp"`
// comments on the offending lines. A diagnostic without a want, or a
// want without a diagnostic, fails the test. Only the suppress fixture
// carries //pruner:allow directives, and TestSuppressions drives those
// by hand.

import (
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

var fixtureFset = token.NewFileSet()

// stdImporter builds one gc-export-data importer for the stdlib
// packages fixtures use, shared by all fixture tests.
var stdImporter = sync.OnceValues(func() (types.Importer, error) {
	pkgs, err := goList([]string{
		"bytes", "context", "encoding/gob", "encoding/json", "errors",
		"fmt", "io", "math/rand", "math/rand/v2", "net/http", "os",
		"slices", "sort", "strings", "sync", "time",
	})
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exportImporter(fixtureFset, exports, nil), nil
})

// loadFixture type-checks testdata/src/<rel> as one package under the
// given import path (the path matters: rawgo and walltime key off it).
func loadFixture(t *testing.T, importPath, rel string) *LoadedPackage {
	t.Helper()
	dir := filepath.Join("testdata", "src", rel)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var goFiles []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			goFiles = append(goFiles, e.Name())
		}
	}
	sort.Strings(goFiles)
	imp, err := stdImporter()
	if err != nil {
		t.Fatalf("building stdlib importer: %v", err)
	}
	pkg, err := CheckPackage(fixtureFset, importPath, dir, goFiles, imp)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", rel, err)
	}
	return pkg
}

// fixtureDiags loads a fixture as a one-package module and runs one
// analyzer over it through the driver's own path (analyze); opts is the
// zero value except for the wireshape fixtures, which pin their
// lock-file path through it.
func fixtureDiags(t *testing.T, a *Analyzer, importPath, rel string, opts RunOptions) (*LoadedPackage, []Diagnostic) {
	t.Helper()
	pkg := loadFixture(t, importPath, rel)
	diags, err := analyze([]*LoadedPackage{pkg}, []*Analyzer{a}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pkg, diags
}

// runFixture diffs one analyzer's diagnostics over a fixture against
// the fixture's want comments; a fixture without wants expects silence.
func runFixture(t *testing.T, a *Analyzer, importPath, rel string, opts RunOptions) {
	t.Helper()
	pkg, diags := fixtureDiags(t, a, importPath, rel, opts)
	checkWants(t, pkg, diags)
}

// A want is one `// want "re"` expectation.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRE = regexp.MustCompile(`^//.*\bwant ` + "`(.+)`" + `\s*$`)

// checkWants diffs diagnostics against the fixture's expectations: each
// diagnostic must match a want regexp on its own line, and every want
// must be claimed by exactly one diagnostic.
func checkWants(t *testing.T, pkg *LoadedPackage, diags []Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", pkg.Fset.Position(c.Pos()), m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}
