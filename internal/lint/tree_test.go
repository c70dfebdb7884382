package lint_test

import (
	"testing"

	"selfemerge/internal/lint"
)

// maxAllowances is the ceiling on the tree's //lint:allow annotations, set
// at their count: an exemption more is an edit of this line.
const maxAllowances = 15

// TestTreeClean runs the full suite over the real module: the shipped tree
// must be lint-clean, with every deliberate exemption carrying a reasoned
// //lint:allow annotation, and no more annotations than maxAllowances. The CI
// lint job runs the same check as `go run ./cmd/emergelint ./...`.
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
	allows := 0
	for _, pkg := range pkgs {
		allows += lint.Allowances(pkg)
		diags, err := lint.RunAnalyzers(pkg, lint.Suite())
		if err != nil {
			t.Fatalf("%s: %v", pkg.PkgPath, err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s: %s", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
	if allows > maxAllowances {
		t.Errorf("%d //lint:allow annotations, above the ceiling of %d: fix the sites, or raise maxAllowances", allows, maxAllowances)
	}
}
