// Command emergelint is the repository's analyzer suite: machine-checked
// determinism, map-order, pool acquire/release and loop-ownership
// invariants over the non-test files of the named packages.
//
//	go run ./cmd/emergelint ./...
//
// Diagnostics at audited exception sites are suppressed with a mandatory
// reason: //lint:allow <analyzer> <reason>. Unused annotations are
// themselves diagnostics, so exemptions cannot go stale.
package main

import (
	"fmt"
	"os"

	"selfemerge/internal/lint"
)

func main() {
	args := os.Args[1:]
	if len(args) == 1 && args[0] == "help" {
		usage()
		return
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "emergelint:", err)
		os.Exit(1)
	}
	pkgs, err := lint.Load(dir, args...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "emergelint:", err)
		os.Exit(1)
	}
	exit := 0
	for _, pkg := range pkgs {
		diags, err := lint.RunAnalyzers(pkg, lint.Suite())
		if err != nil {
			fmt.Fprintln(os.Stderr, "emergelint:", err)
			os.Exit(1)
		}
		for _, d := range diags {
			fmt.Printf("%s: %s: %s\n", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
			exit = 1
		}
	}
	os.Exit(exit)
}

func usage() {
	fmt.Println("emergelint checks the repository's determinism, pool and loop-ownership contracts.")
	fmt.Println()
	fmt.Println("usage: emergelint [packages]   (non-test files; default ./...)")
	fmt.Println()
	for _, a := range lint.Suite() {
		fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		fmt.Println()
	}
}
