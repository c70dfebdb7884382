package lint

import (
	"go/ast"
	"go/types"
	"path"
)

// loopOwnedPkgs names, by their import path's final element, the packages
// whose state belongs to one dispatch context: an event loop's simulator,
// its fabric slice, the nodes and hosts scheduled on it, and the records
// they recycle. Code here runs on that loop — or in its driver while the
// loop is paused — and synchronises with nothing (DESIGN.md, "Dispatch
// contexts").
var loopOwnedPkgs = map[string]bool{
	"sim":      true,
	"simnet":   true,
	"dht":      true,
	"protocol": true,
	"freelist": true,
}

// Loopowned keeps locks and atomics out of the loop-owned packages. A mutex
// there either guards against a second context that does not exist, or
// admits one without saying so; the few places two contexts really meet
// name both in a //lint:allow. It checks declarations and package-level
// calls; the runtime half of the guard is dht's Scratch re-entry panic.
var Loopowned = &Analyzer{
	Name: "loopowned",
	Doc: "forbid sync.Mutex, sync.RWMutex and sync/atomic in the loop-owned packages (sim, simnet, dht, " +
		"protocol, freelist), whose state is touched from one dispatch context only " +
		"(//lint:allow loopowned <the two contexts> marks a real meeting point)",
	Run: runLoopowned,
}

func runLoopowned(pass *Pass) error {
	if !loopOwnedPkgs[path.Base(pass.Pkg.Path())] {
		return nil
	}
	eachPkgSelector(pass, func(sel *ast.SelectorExpr, imported *types.Package) {
		switch name := sel.Sel.Name; {
		case imported.Path() == "sync/atomic",
			imported.Path() == "sync" && (name == "Mutex" || name == "RWMutex"):
			pass.Reportf(sel.Pos(),
				"%s.%s in loop-owned package %s: its state is touched from one dispatch context; name the two that meet here or drop it",
				imported.Name(), name, pass.Pkg.Path())
		}
	})
	return nil
}
