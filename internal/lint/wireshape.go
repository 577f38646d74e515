package lint

// WireShape extracts the module's live wire schema and locks it against
// the checked-in wire.lock golden. Roots are discovered statically:
// every argument that reaches encoding/json or encoding/gob — directly,
// or through any chain of helpers that forward a parameter into an
// encoder (the server's writeJSON(w, code, v any) idiom), which the
// parameter-flow summaries of dataflow.go resolve. Each named module
// struct found in a root expression is expanded transitively through
// its exported fields, so the schema covers the full reachable shape:
// the measure record codec, the fleet wire header (and the ir.Task it
// drags in), the HTTP/SSE view structs, and the gob model bundle.
//
// Check mode fails on breaking drift against the lock — removed or
// renamed fields/wire names, type changes, lost encodings — and emits
// additive drift (new types, new fields) as non-failing notices.
// Regeneration is an explicit act: pruner-vet -write-wire (`make
// wire-lock`), reviewed like any contract change.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
)

var WireShape = &Analyzer{
	Name: "wireshape",
	Doc:  "the schema of every type reaching a json/gob encoder must match the checked-in wire.lock",
	Run:  runWireShape,
}

// wireEncoders maps encoder entry points to the encoding they speak and
// the argument position carrying the wire value.
var wireEncoders = map[string]struct {
	enc string
	arg int
}{
	"encoding/json.Marshal":            {"json", 0},
	"encoding/json.MarshalIndent":      {"json", 0},
	"encoding/json.Unmarshal":          {"json", 1},
	"encoding/json.Encoder.Encode":     {"json", 0},
	"encoding/json.Decoder.Decode":     {"json", 0},
	"encoding/gob.Encoder.Encode":      {"gob", 0},
	"encoding/gob.Encoder.EncodeValue": {"gob", 0},
	"encoding/gob.Decoder.Decode":      {"gob", 0},
}

// liveWire is the extracted schema plus source positions for reporting.
type liveWire struct {
	schema   *WireSchema
	typePos  map[string]token.Position
	fieldPos map[string]map[string]token.Position
}

func runWireShape(pass *Pass) error {
	live := extractWireSchema(pass)

	lockPath := pass.WireLock
	if lockPath == "" {
		p, err := defaultWireLockPath()
		if err != nil {
			return err
		}
		lockPath = p
	}

	if pass.WriteWire {
		return os.WriteFile(lockPath, FormatWireLock(live.schema), 0o644)
	}

	lockFilePos := token.Position{Filename: lockPath, Line: 1, Column: 1}
	data, err := os.ReadFile(lockPath)
	if err != nil {
		if os.IsNotExist(err) {
			pass.reportAt(lockFilePos, false,
				"wire.lock is missing: the wire schema is unlocked; generate it with `pruner-vet -write-wire ./...` (make wire-lock)")
			return nil
		}
		return fmt.Errorf("wireshape: %w", err)
	}
	locked, err := ParseWireLock(data)
	if err != nil {
		pass.reportAt(lockFilePos, false, "wire.lock is unreadable: %v; regenerate with `pruner-vet -write-wire ./...`", err)
		return nil
	}

	for _, d := range diffWireSchemas(locked, live.schema) {
		pos := lockFilePos
		if fp, ok := live.fieldPos[d.TypeID][d.Field]; ok && d.Field != "" {
			pos = fp
		} else if tp, ok := live.typePos[d.TypeID]; ok {
			pos = tp
		}
		pass.reportAt(pos, !d.Breaking, "%s", d.Message)
	}
	return nil
}

// defaultWireLockPath resolves wire.lock next to the module's go.mod.
func defaultWireLockPath() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("wireshape: resolving go.mod: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("wireshape: not inside a module (go env GOMOD is empty)")
	}
	return filepath.Join(filepath.Dir(gomod), "wire.lock"), nil
}

// extractWireSchema runs root discovery and transitive expansion over
// the loaded module.
func extractWireSchema(pass *Pass) *liveWire {
	g := pass.Graph()
	byPath := map[string]*LoadedPackage{}
	for _, p := range pass.Pkgs {
		byPath[p.ImportPath] = p
	}

	// Conduit summaries: parameter i of f is a wire conduit when a value
	// passed there may reach an encoder argument, directly or through
	// further conduits.
	flows := computeParamFlows(g, nil, func(ft *funcTaint) bool {
		hit := false
		ft.node.forEachCall(func(call *ast.CallExpr, calleeID string) {
			if spec, ok := wireEncoders[calleeID]; ok && spec.arg < len(call.Args) && ft.exprTainted(call.Args[spec.arg]) {
				hit = true
			}
		})
		return hit
	})

	// Root collection: every expression handed to an encoder or to a
	// conduit parameter contributes the named module structs of its
	// subexpressions, under the relevant encoding.
	encodings := map[string]map[string]bool{} // type ID -> encodings
	typePos := map[string]token.Position{}
	fieldPos := map[string]map[string]token.Position{}

	var addType func(t types.Type, enc string)
	addType = func(t types.Type, enc string) {
		for {
			switch tt := t.(type) {
			case *types.Pointer:
				t = tt.Elem()
				continue
			case *types.Slice:
				t = tt.Elem()
				continue
			case *types.Array:
				t = tt.Elem()
				continue
			case *types.Map:
				t = tt.Elem()
				continue
			}
			break
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return
		}
		pkg := byPath[named.Obj().Pkg().Path()]
		if pkg == nil {
			return // outside the loaded module: not ours to lock
		}
		if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
			return
		}
		id := named.Obj().Pkg().Path() + "." + named.Obj().Name()
		if encodings[id] == nil {
			encodings[id] = map[string]bool{}
		}
		if encodings[id][enc] {
			return
		}
		encodings[id][enc] = true

		// Canonical object from the type's own package, so positions and
		// tags come from source, not export data.
		obj := pkg.Types.Scope().Lookup(named.Obj().Name())
		if obj == nil {
			return
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			return
		}
		typePos[id] = pass.Fset.Position(obj.Pos())
		if fieldPos[id] == nil {
			fieldPos[id] = map[string]token.Position{}
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() {
				continue
			}
			fieldPos[id][f.Name()] = pass.Fset.Position(f.Pos())
			addType(f.Type(), enc)
		}
	}

	collectExpr := func(n *FuncNode, e ast.Expr, enc string) {
		ast.Inspect(e, func(x ast.Node) bool {
			if _, isLit := x.(*ast.FuncLit); isLit {
				return false
			}
			ex, ok := x.(ast.Expr)
			if !ok {
				return true
			}
			if tv, ok := n.Pkg.Info.Types[ex]; ok && tv.IsValue() {
				addType(tv.Type, enc)
			}
			return true
		})
	}

	for _, id := range g.sortedNodeIDs() {
		n := g.Nodes[id]
		n.forEachCall(func(call *ast.CallExpr, calleeID string) {
			if spec, ok := wireEncoders[calleeID]; ok && spec.arg < len(call.Args) {
				collectExpr(n, call.Args[spec.arg], spec.enc)
			}
			for i, arg := range call.Args {
				if flows.flows(calleeID, i) {
					// The conduit's own encoder calls determine the
					// encoding; json is the module's conduit reality and
					// the conservative default for view helpers.
					collectExpr(n, arg, conduitEncoding(g, calleeID))
				}
			}
		})
	}

	// Assemble the schema deterministically.
	var ids []string
	for id := range encodings {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	schema := &WireSchema{}
	for _, id := range ids {
		var encs []string
		for e := range encodings[id] {
			encs = append(encs, e)
		}
		sort.Strings(encs)
		dot := strings.LastIndex(id, ".")
		pkg := byPath[id[:dot]]
		if pkg == nil {
			continue
		}
		obj := pkg.Types.Scope().Lookup(id[dot+1:])
		if obj == nil {
			continue
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		wt := WireType{ID: id, Encodings: normalizeEncodings(encs)}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() {
				continue
			}
			wire, omit := wireName(f.Name(), st.Tag(i))
			wt.Fields = append(wt.Fields, WireField{
				Name:      f.Name(),
				Wire:      wire,
				OmitEmpty: omit,
				Type:      types.TypeString(f.Type(), func(p *types.Package) string { return p.Path() }),
			})
		}
		schema.Types = append(schema.Types, wt)
	}
	return &liveWire{schema: schema, typePos: typePos, fieldPos: fieldPos}
}

// conduitEncoding picks the encoding a conduit parameter ultimately
// reaches by inspecting the conduit body's own encoder calls; json when
// ambiguous or laundered through further conduits.
func conduitEncoding(g *CallGraph, calleeID string) string {
	n := g.Nodes[calleeID]
	if n == nil {
		return "json"
	}
	enc := ""
	n.forEachCall(func(call *ast.CallExpr, id string) {
		if spec, ok := wireEncoders[id]; ok {
			if enc == "" {
				enc = spec.enc
			} else if enc != spec.enc {
				enc = "json"
			}
		}
	})
	if enc == "" {
		return "json"
	}
	return enc
}

// wireName derives the wire name and omitempty flag from a struct tag,
// defaulting to the Go field name (the gob and untagged-json rule).
func wireName(goName, tag string) (string, bool) {
	jt := reflect.StructTag(tag).Get("json")
	if jt == "" {
		return goName, false
	}
	parts := strings.Split(jt, ",")
	name := parts[0]
	if name == "" {
		name = goName
	}
	omit := false
	for _, opt := range parts[1:] {
		if opt == "omitempty" {
			omit = true
		}
	}
	return name, omit
}
