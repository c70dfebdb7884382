package lint_test

import (
	"testing"

	"selfemerge/internal/lint"
	"selfemerge/internal/lint/linttest"
)

func TestLoopowned(t *testing.T) {
	linttest.Run(t, "testdata", lint.Loopowned, "fixture/loopowned/...")
}
