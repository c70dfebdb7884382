// Package testutil holds shared test helpers; it is imported only from
// _test files.
package testutil

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// update is registered once per test binary that imports this package:
// `go test -update` rewrites the golden files a test compares against.
var update = flag.Bool("update", false, "rewrite the golden files under testdata/ where the new output only adds to the old")

// Golden compares got against the golden file testdata/<name>, rewriting it
// instead when the -update flag is set. The rewrite only adds: it is refused
// for a file whose old values would drop or change, so a change meant to move
// values deletes the file first and the diff shows it re-recorded whole.
func Golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if old, err := os.ReadFile(path); err == nil {
			if err := keeps(name, old, got); err != nil {
				t.Errorf("%s: -update only adds output, and this moves an old value (%v); delete the file to re-record it", name, err)
				return
			}
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden output\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// keeps reports a fact of prev that next drops or changes: a CSV cell (its
// row and column name), a JSON value (its key path), or a whitespace-separated
// token of a text line. Whatever next adds — columns, keys, rows, tokens — is
// allowed.
func keeps(name string, prev, next []byte) error {
	old, err := facts(name, prev)
	if err != nil {
		return err
	}
	now, err := facts(name, next)
	if err != nil {
		return err
	}
	for _, f := range old {
		if !slices.Contains(now, f) {
			return fmt.Errorf("%s dropped or changed", f)
		}
	}
	return nil
}

// facts lists what data states, one string per cell, value or token.
func facts(name string, data []byte) ([]string, error) {
	var out []string
	switch filepath.Ext(name) {
	case ".csv":
		rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
		if err != nil || len(rows) == 0 {
			return nil, err
		}
		for r, row := range rows[1:] {
			for i, v := range row {
				out = append(out, fmt.Sprintf("row %d %s=%q", r+1, rows[0][i], v))
			}
		}
	case ".json":
		var doc any
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, err
		}
		var walk func(at string, v any)
		walk = func(at string, v any) {
			switch v := v.(type) {
			case map[string]any:
				for k, e := range v {
					walk(at+"."+k, e)
				}
			case []any:
				for i, e := range v {
					walk(fmt.Sprintf("%s[%d]", at, i), e)
				}
			default:
				out = append(out, fmt.Sprintf("%s=%v", at, v))
			}
		}
		walk("$", doc)
	default:
		for i, line := range strings.Split(string(data), "\n") {
			for _, tok := range strings.Fields(line) {
				out = append(out, fmt.Sprintf("line %d %q", i+1, tok))
			}
		}
	}
	return out, nil
}
