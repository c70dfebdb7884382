// Package lint is the emergelint analyzer suite: machine-checked versions of
// the cross-package contracts the reproduction's byte-determinism rests on.
// The compiler cannot see that simulated runs must be a pure function of
// their seed (no wall clock, no ambient randomness, no map order leaking into
// events), that pooled records follow an exact acquire/release protocol, or
// that an event loop's state is touched from that loop alone — these
// analyzers can, and CI runs them over the whole tree so new code cannot
// silently break the contracts.
//
// The package is deliberately self-contained: it reimplements the small
// slice of the golang.org/x/tools go/analysis vocabulary it needs (Analyzer,
// Pass, Diagnostic, a go-list-driven loader) on the standard library alone,
// because the repository builds offline with no module dependencies.
//
// # Annotations
//
// A diagnostic at a site that is deliberately exempt — the crypto/rand
// fallbacks real deployments keep, wall-clock Elapsed diagnostics, the
// lockstep worker cursor — is suppressed with a load-bearing annotation on the same
// line or the line directly above:
//
//	//lint:allow detrand reason why this site is exempt
//
// The reason is mandatory, and an annotation that suppresses nothing is
// itself reported, so stale exemptions cannot accumulate.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. It mirrors the x/tools go/analysis shape so
// the analyzers port wholesale if the dependency ever becomes available.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow
	// annotations. It must be a single word.
	Name string
	// Doc is the one-paragraph description printed by `emergelint help`.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diagnostics []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Suite returns the full emergelint analyzer set in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{Detrand, Mapiter, Poolpair, Loopowned}
}

// AllowPrefix is the annotation marker: //lint:allow <analyzer> <reason>.
const AllowPrefix = "lint:allow"

// allowance is one parsed //lint:allow annotation.
type allowance struct {
	pos      token.Pos
	line     int // the annotation's own physical line
	file     string
	analyzer string
	reason   string
	used     bool
}

// parseAllowances extracts every //lint:allow annotation from the files. An
// annotation covers its own line (trailing comment form) and the line
// directly below it (standalone comment form).
func parseAllowances(fset *token.FileSet, files []*ast.File) []*allowance {
	var out []*allowance
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, AllowPrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, AllowPrefix))
				// A nested comment (fixture `// want` markers) is not part
				// of the reason.
				rest, _, _ = strings.Cut(rest, "//")
				name, reason, _ := strings.Cut(rest, " ")
				pos := fset.Position(c.Pos())
				out = append(out, &allowance{
					pos:      c.Pos(),
					line:     pos.Line,
					file:     pos.Filename,
					analyzer: name,
					reason:   strings.TrimSpace(reason),
				})
			}
		}
	}
	return out
}

// RunAnalyzers executes the analyzers over one loaded package, applies the
// //lint:allow suppression pass, and returns the surviving diagnostics plus
// annotation-hygiene findings (missing reasons, unused or unknown allows).
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := map[string]bool{}
	var raw []Diagnostic
	for _, a := range analyzers {
		known[a.Name] = true
		pass := &Pass{
			Analyzer:  a,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
		}
		raw = append(raw, pass.diagnostics...)
	}

	allows := parseAllowances(pkg.Fset, pkg.Syntax)
	var out []Diagnostic
	for _, d := range raw {
		pos := pkg.Fset.Position(d.Pos)
		suppressed := false
		for _, al := range allows {
			if al.analyzer == d.Analyzer && al.file == pos.Filename &&
				(al.line == pos.Line || al.line+1 == pos.Line) && al.reason != "" {
				al.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	for _, al := range allows {
		switch {
		case !known[al.analyzer]:
			// Only meaningful when the full suite runs; a partial run
			// (fixture tests) must not flag other analyzers' allows.
			if len(analyzers) == len(Suite()) {
				out = append(out, Diagnostic{Pos: al.pos, Analyzer: "lintallow",
					Message: fmt.Sprintf("//lint:allow names unknown analyzer %q", al.analyzer)})
			}
		case al.reason == "":
			out = append(out, Diagnostic{Pos: al.pos, Analyzer: al.analyzer,
				Message: "//lint:allow needs a reason: the annotation must say why the site is exempt"})
		case !al.used:
			out = append(out, Diagnostic{Pos: al.pos, Analyzer: al.analyzer,
				Message: fmt.Sprintf("unused //lint:allow %s: no diagnostic here, delete the stale exemption", al.analyzer)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(out[i].Pos), pkg.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return out[i].Message < out[j].Message
	})
	return out, nil
}
