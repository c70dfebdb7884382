package lint_test

import (
	"strings"
	"testing"

	"selfemerge/internal/lint"
)

// TestUnknownAllow runs the full suite over an annotation that names no
// analyzer in it: the allow must surface as a lintallow diagnostic rather
// than silently suppress nothing.
func TestUnknownAllow(t *testing.T) {
	pkgs, err := lint.Load("testdata", "fixture/lintallow")
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	diags, err := lint.RunAnalyzers(pkgs[0], lint.Suite())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Analyzer != "lintallow" ||
		!strings.Contains(diags[0].Message, `unknown analyzer "retain"`) {
		t.Fatalf("diagnostics = %+v, want one lintallow report of unknown analyzer \"retain\"", diags)
	}
}
