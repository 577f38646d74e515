// Command pruner-vet runs the repo's determinism, concurrency, and
// wire-contract analyzers (internal/lint) over Go packages, in the
// manner of go vet:
//
//	pruner-vet ./...
//	pruner-vet -checks rawgo,maprange ./internal/tuner/...
//	pruner-vet -checks wireshape ./...   # make wire-check
//	pruner-vet -write-wire ./...         # make wire-lock
//	pruner-vet -json ./... | jq 'select(.suppressed)'
//
// Exit-code contract (stable, scripted against by make lint and CI):
//
//	0  every surviving diagnostic count is zero — the tree honors the
//	   contract (suppressed findings and additive wire notices may
//	   still exist; see -json)
//	1  at least one diagnostic survives: a finding with no //pruner:allow,
//	   or a malformed, unknown, reasonless, or unused suppression
//	2  the packages failed to load (bad pattern, type error) or the
//	   flags were invalid (unknown analyzer name)
//
// With -json, pruner-vet writes one JSON object per diagnostic to
// stdout — suppressed ones and notices included, so editors and CI
// dashboards see the complete picture — while the exit code still keys
// on unsuppressed, non-notice findings only. -write-wire regenerates
// the wire.lock golden from the live wire schema (the deliberate path
// for a reviewed wire change; see API.md "Wire compatibility"). A
// clean run is part of the bitwise-reproducibility contract
// (DESIGN.md §12).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"pruner/internal/lint"
)

// jsonDiag is the -json wire format: one object per line, one line per
// diagnostic, suppressed or not.
type jsonDiag struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Check      string `json:"check"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
	Reason     string `json:"reason,omitempty"`
	Notice     bool   `json:"notice,omitempty"`
}

func main() {
	var (
		checks    = flag.String("checks", "", "comma-separated analyzer names to run (default: all)")
		listOnly  = flag.Bool("list", false, "list available analyzers and exit")
		jsonOut   = flag.Bool("json", false, "emit one JSON object per diagnostic (suppressed included) instead of text")
		writeWire = flag.Bool("write-wire", false, "regenerate the wire.lock golden from the live wire schema and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pruner-vet [-checks name,...] [-json] [-write-wire] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listOnly {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.All()
	if *checks != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*checks, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "pruner-vet: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	// -write-wire is the deliberate regeneration path: only wireshape
	// runs, in write mode, and a successful run reports the new golden.
	if *writeWire {
		if _, err := lint.Run(patterns, []*lint.Analyzer{lint.WireShape}, lint.RunOptions{WriteWire: true}); err != nil {
			fmt.Fprintf(os.Stderr, "pruner-vet: %v\n", err)
			os.Exit(2)
		}
		fmt.Println("pruner-vet: wrote wire.lock from the live wire schema")
		return
	}

	// Run returns the suppressed diagnostics and notices too (marked as
	// such) so -json can report them; the exit code counts only the
	// failing ones either way.
	all, err := lint.Run(patterns, analyzers, lint.RunOptions{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pruner-vet: %v\n", err)
		os.Exit(2)
	}
	findings := 0
	enc := json.NewEncoder(os.Stdout)
	for _, d := range all {
		if d.Failing() {
			findings++
		}
		switch {
		case *jsonOut:
			_ = enc.Encode(jsonDiag{ // encoding a plain struct to stdout cannot fail usefully
				File:       d.Pos.Filename,
				Line:       d.Pos.Line,
				Col:        d.Pos.Column,
				Check:      d.Analyzer,
				Message:    d.Message,
				Suppressed: d.Suppressed,
				Reason:     d.Reason,
				Notice:     d.Notice,
			})
		case d.Notice:
			fmt.Printf("%s (notice)\n", d)
		case !d.Suppressed:
			fmt.Println(d)
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "pruner-vet: %d finding(s)\n", findings)
		os.Exit(1)
	}
}
