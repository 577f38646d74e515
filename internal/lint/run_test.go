package lint

import "testing"

// TestRepoCleanUnderPrunerVet is the contract itself: the whole module
// must produce zero diagnostics — no raw go statements without a
// reasoned //pruner:allow, no order-sensitive map ranges, no
// process-global rand, no wall-clock reads in deterministic layers, and
// no rotted suppressions. This runs the same suite `make lint` and CI
// run, so `go test ./...` alone also enforces the contract.
func TestRepoCleanUnderPrunerVet(t *testing.T) {
	if testing.Short() {
		t.Skip("shelling out to go list; skipped in -short")
	}
	diags, err := Run([]string{"pruner/..."}, All(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Failing() {
			t.Errorf("%s", d)
		}
	}
}

// TestRunSubsetKeepsOtherSuppressionsInert pins the -checks behavior:
// running a subset of analyzers over a package that carries a
// suppression for a *different* (but known) check must not misreport
// that directive as an unknown check or as unused — it is simply inert
// while its analyzer is not running. The tuner package's rawgo
// suppression is the live example.
func TestRunSubsetKeepsOtherSuppressionsInert(t *testing.T) {
	if testing.Short() {
		t.Skip("shelling out to go list; skipped in -short")
	}
	diags, err := Run([]string{"pruner/internal/tuner"}, []*Analyzer{WallTime, MapRange}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("subset run produced diagnostic: %s", d)
	}
}

// TestLoadRealPackage exercises the go list loader end to end on a real
// module package, including export-data imports of intra-module deps.
func TestLoadRealPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("shelling out to go list; skipped in -short")
	}
	pkgs, err := Load([]string{"pruner/internal/parallel"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.Types == nil || pkg.Info == nil || len(pkg.Files) == 0 {
		t.Fatalf("package %s loaded without types or syntax", pkg.ImportPath)
	}
	// The pool package spawns goroutines by design and is exempt.
	diags, err := analyze(pkgs, []*Analyzer{RawGo}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("rawgo flagged the exempt pool package: %v", diags)
	}
}
