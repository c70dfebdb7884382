package lint

import (
	"go/ast"
	"go/types"
	"path"
)

// deterministicPkgs names the determinism-critical packages by their import
// path's final element: everything a simulated run executes between seed and
// report. Code here must draw time from the injected sim.Clock and
// randomness from the seeded stats.ByteStream / protocol.Sender seams; the
// audited real-world fallbacks (crypto/rand defaults for real deployments,
// wall-clock Elapsed diagnostics) carry //lint:allow annotations; the wall
// clock itself enters in transport/udp, outside the boundary.
var deterministicPkgs = map[string]bool{
	"selfemerge": true, // the root mission-orchestration package
	"sim":        true,
	"dht":        true,
	"protocol":   true,
	"scenario":   true,
	"adversary":  true,
	"simnet":     true,
	"experiment": true,
	"fault":      true,
	"onion":      true, // crypto/* seeded paths
	"seal":       true,
	"shamir":     true,
}

// isDeterministicPkg reports whether the package at path is inside the
// seeded-deterministic boundary.
func isDeterministicPkg(pkgPath string) bool {
	return deterministicPkgs[path.Base(pkgPath)]
}

// Detrand forbids ambient nondeterminism — wall-clock time, the global
// math/rand generators, crypto/rand — inside the determinism-critical
// packages, where every byte of a simulated run must be a pure function of
// its seed.
var Detrand = &Analyzer{
	Name: "detrand",
	Doc: "forbid time.Now, global math/rand and crypto/rand in determinism-critical packages; " +
		"use the injected sim.Clock, stats.ByteStream or protocol.Sender seams instead " +
		"(//lint:allow detrand reason marks the audited real-world fallbacks)",
	Run: runDetrand,
}

// wallClockFuncs are the package time functions that read or schedule off
// the system clock. Pure construction/formatting (time.Date, time.Unix,
// time.Parse, Duration arithmetic) stays legal.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// seededRandCtors are the math/rand(/v2) constructors that produce an
// explicitly seeded generator; everything else at package level feeds off
// the global, ambiently seeded source.
var seededRandCtors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true,
	"NewChaCha8": true, "NewZipf": true,
}

func runDetrand(pass *Pass) error {
	if !isDeterministicPkg(pass.Pkg.Path()) {
		return nil
	}
	eachPkgSelector(pass, func(sel *ast.SelectorExpr, imported *types.Package) {
		switch imported.Path() {
		case "time":
			if wallClockFuncs[sel.Sel.Name] {
				pass.Reportf(sel.Pos(),
					"time.%s reads the wall clock in determinism-critical package %s; use the injected sim.Clock",
					sel.Sel.Name, pass.Pkg.Path())
			}
		case "math/rand", "math/rand/v2":
			obj := pass.TypesInfo.Uses[sel.Sel]
			if _, isFunc := obj.(*types.Func); isFunc && !seededRandCtors[sel.Sel.Name] {
				pass.Reportf(sel.Pos(),
					"global rand.%s is ambiently seeded; draw from an explicitly seeded generator (stats.ByteStream, rand.New)",
					sel.Sel.Name)
			}
		case "crypto/rand":
			pass.Reportf(sel.Pos(),
				"crypto/rand.%s is unseedable inside the deterministic boundary; use the stats.ByteStream / protocol.Sender seam",
				sel.Sel.Name)
		}
	})
	return nil
}

// eachPkgSelector calls fn for every pkg.Name selector in the package, with
// the package the qualifier names.
func eachPkgSelector(pass *Pass, fn func(sel *ast.SelectorExpr, imported *types.Package)) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if ident, ok := sel.X.(*ast.Ident); ok {
					if pkgName, ok := pass.TypesInfo.Uses[ident].(*types.PkgName); ok {
						fn(sel, pkgName.Imported())
					}
				}
			}
			return true
		})
	}
}
