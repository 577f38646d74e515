package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDecl is one metric as BENCHMARK.json declares it. bound is the
// share of the old median by which the metric may worsen (end-to-end
// metrics only; per-layer metrics have none).
type metricDecl struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// benchSpec is the part of BENCHMARK.json this command reads back.
type benchSpec struct {
	runSeconds float64
	workloads  []string
	endToEnd   []metricDecl
	perLayer   []metricDecl
}

func findMetric(in []metricDecl, name string) (metricDecl, bool) {
	for _, m := range in {
		if m.name == name {
			return m, true
		}
	}
	return metricDecl{}, false
}

// loadSpec reads BENCHMARK.json from the module root: the working
// directory under `go run ./bench`, its parent under `go test ./bench`.
func loadSpec() (*benchSpec, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	// Decoded generically: a named struct handed to encoding/json would
	// join the module's locked wire schema (wire.lock), which this
	// directory must not change.
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	spec := &benchSpec{}
	spec.runSeconds, _ = raw["run_seconds"].(float64)
	for _, w := range list(raw["workloads"]) {
		spec.workloads = append(spec.workloads, str(w["name"]))
	}
	spec.endToEnd = decls(raw["end_to_end"])
	spec.perLayer = decls(raw["per_layer"])
	if spec.runSeconds <= 0 || len(spec.workloads) == 0 || len(spec.endToEnd) == 0 || len(spec.perLayer) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json: missing run_seconds, workloads, end_to_end or per_layer")
	}
	return spec, nil
}

// moduleRoot walks up from the working directory to the directory
// holding go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

func decls(v any) []metricDecl {
	var out []metricDecl
	for _, m := range list(v) {
		bound, _ := m["bound"].(float64)
		out = append(out, metricDecl{name: str(m["name"]), unit: str(m["unit"]), better: str(m["better"]), bound: bound})
	}
	return out
}

// list views a decoded JSON array of objects.
func list(v any) []map[string]any {
	items, _ := v.([]any)
	out := make([]map[string]any, 0, len(items))
	for _, it := range items {
		if m, ok := it.(map[string]any); ok {
			out = append(out, m)
		}
	}
	return out
}

func str(v any) string {
	s, _ := v.(string)
	return s
}
