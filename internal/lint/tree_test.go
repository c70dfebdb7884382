package lint_test

import (
	"testing"

	"selfemerge/internal/lint"
)

// TestTreeClean runs the full suite over the real module: the shipped tree
// must be lint-clean, with every deliberate exemption carrying a reasoned
// //lint:allow annotation. The CI lint job runs the same check as
// `go run ./cmd/emergelint ./...`.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, pkg := range pkgs {
		diags, err := lint.RunAnalyzers(pkg, lint.Suite())
		if err != nil {
			t.Fatalf("%s: %v", pkg.PkgPath, err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s: %s", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
}
