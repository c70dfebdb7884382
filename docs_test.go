package selfemerge

import (
	"bytes"
	"os"
	"testing"
)

// maxDocLines is the ceiling on each contract document's line count, set at
// its length: a line more is an edit of this table. The counts are only ever
// lowered, towards DESIGN.md ≤ 1,000 and README.md ≤ 350 lines.
var maxDocLines = map[string]int{
	"DESIGN.md": 2078,
	"README.md": 684,
}

// TestDocsDoNotGrow fails when DESIGN.md or README.md grows past its
// recorded line count: an edit that adds to them removes as much elsewhere.
func TestDocsDoNotGrow(t *testing.T) {
	for name, max := range maxDocLines {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(b, []byte("\n")); n > max {
			t.Errorf("%s has %d lines, above its ceiling of %d: shorten it, or raise maxDocLines", name, n, max)
		}
	}
}
