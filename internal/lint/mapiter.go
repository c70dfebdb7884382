package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Mapiter flags `for range` over a map whose body has order-dependent
// effects — appending to or index-storing into state that outlives the loop,
// sending on channels, scheduling or emitting, or a plain store of an entry's
// value into a variable that outlives the loop — without a subsequent
// deterministic sort. Go randomizes map iteration order per run, so such a
// loop is exactly the bug class the engine's (time, shard, seq) merge
// ordering exists to prevent: results that differ run to run even at a
// fixed seed.
var Mapiter = &Analyzer{
	Name: "mapiter",
	Doc: "flag range-over-map loops in determinism-critical packages whose bodies write to " +
		"emitted/merged/scheduled state without a subsequent deterministic sort; " +
		"iterate sorted keys, sort the result, or //lint:allow mapiter reason",
	Run: runMapiter,
}

// orderSensitiveCalls are method names that emit, schedule or hand off work:
// calling one per map entry bakes the iteration order into the event
// sequence. Writes into plain maps, scalar accumulation (x += v) and
// deletes stay legal — their final state is iteration-order independent.
var orderSensitiveCalls = map[string]bool{
	"Schedule": true, "ScheduleArg": true, "AfterFunc": true, "AfterFuncArg": true,
	"Send": true, "SendTo": true, "Emit": true, "Enqueue": true,
	"Push": true, "Publish": true, "Dispatch": true,
}

func runMapiter(pass *Pass) error {
	if !isDeterministicPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkMapRanges(pass, fn.Body)
		}
	}
	return nil
}

// checkMapRanges walks one function body reporting order-dependent
// range-over-map loops.
func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		for _, eff := range mapRangeEffects(pass, rng) {
			if eff.sortable != nil && sortedAfter(pass, body, rng, eff.sortable) {
				continue
			}
			pass.Reportf(eff.pos,
				"map iteration order leaks into %s; iterate sorted keys or sort the result afterwards", eff.what)
		}
		return true
	})
	return
}

// effect is one order-dependent action found in a range body. sortable names
// the written variable when a later deterministic sort absolves the effect
// (append/index-store targets); it is nil for sends and scheduling calls,
// which bake the order in immediately.
type effect struct {
	pos      token.Pos
	what     string
	sortable types.Object
}

// mapRangeEffects collects the order-dependent effects of one range body.
func mapRangeEffects(pass *Pass, rng *ast.RangeStmt) []effect {
	var effects []effect
	outer := func(e ast.Expr) (types.Object, bool) {
		id := rootIdent(e)
		if id == nil {
			return nil, false
		}
		obj := pass.TypesInfo.ObjectOf(id)
		if obj == nil || obj.Pos() == token.NoPos {
			return nil, false // package-level dotted imports etc.: treat as inner
		}
		// Declared before the range statement = outlives the loop.
		return obj, obj.Pos() < rng.Pos()
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				switch len(n.Rhs) {
				case len(n.Lhs):
					rhs = n.Rhs[i]
				case 1: // v, ok = m[k]
					rhs = n.Rhs[0]
				}
				effects = append(effects, assignEffects(pass, rng, outer, n.Tok, lhs, rhs)...)
			}
		case *ast.SendStmt:
			effects = append(effects, effect{pos: n.Arrow, what: "a channel send"})
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || !orderSensitiveCalls[sel.Sel.Name] {
				return true
			}
			if _, isPkg := pass.TypesInfo.Uses[rootIdent(sel.X)].(*types.PkgName); isPkg {
				// Package-qualified (protocol.Dispatch...): always
				// order-sensitive.
				effects = append(effects, effect{pos: n.Pos(), what: sel.Sel.Name + " per map entry"})
				return true
			}
			if _, isOuter := outer(sel.X); isOuter {
				effects = append(effects, effect{pos: n.Pos(), what: sel.Sel.Name + " per map entry"})
			}
		}
		return true
	})
	return effects
}

// assignEffects classifies one assignment target inside a range body.
func assignEffects(pass *Pass, rng *ast.RangeStmt, outer func(ast.Expr) (types.Object, bool), tok token.Token, lhs, rhs ast.Expr) []effect {
	// append into anything that outlives the loop records the order,
	// whatever shape the destination takes (local slice, field, element).
	if call, ok := rhs.(*ast.CallExpr); ok {
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
			if obj, isOuter := outer(lhs); isOuter {
				return []effect{{pos: lhs.Pos(), what: "append order of " + exprString(lhs), sortable: obj}}
			}
			return nil
		}
	}
	switch lhs := lhs.(type) {
	case *ast.Ident:
		// A plain store keeps the last entry's value when an entry decides
		// it. An op-assign (sum += v) and a store no entry decides
		// (found = true) end the same in any order.
		if _, isOuter := outer(lhs); isOuter && tok == token.ASSIGN && readsEntry(pass, rng, rhs) {
			return []effect{{pos: lhs.Pos(), what: "the surviving write to " + lhs.Name}}
		}
	case *ast.IndexExpr:
		base := pass.TypesInfo.Types[lhs.X].Type
		if base == nil {
			return nil
		}
		switch base.Underlying().(type) {
		case *types.Slice, *types.Array:
			if obj, isOuter := outer(lhs.X); isOuter {
				return []effect{{pos: lhs.Pos(), what: "element order of " + exprString(lhs.X), sortable: obj}}
			}
		}
		// Map stores are per-key: final state is order-independent.
	case *ast.SelectorExpr:
		// Field store through something that outlives the loop: last write
		// wins, so the surviving value depends on iteration order — unless
		// the root is the loop's own value variable (per-entry update).
		if obj, isOuter := outer(lhs.X); isOuter {
			return []effect{{pos: lhs.Pos(), what: "the surviving write to " + exprString(lhs), sortable: obj}}
		}
	}
	return nil
}

// readsEntry reports whether e reads the range's key or value or a local of
// its body: a variable declared inside the range statement.
func readsEntry(pass *Pass, rng *ast.RangeStmt, e ast.Expr) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil && obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
				found = true
			}
		}
		return !found
	})
	return found
}

// sortedAfter reports whether obj is passed to a sorting call after the
// range statement within the same function body.
func sortedAfter(pass *Pass, body *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rng.End() || found {
			return !found
		}
		// Include the qualifier so sort.Strings / slices.SortFunc both match.
		name := exprString(call.Fun)
		if !strings.Contains(name, "Sort") && !strings.Contains(name, "sort") {
			return true
		}
		for _, arg := range call.Args {
			if id := rootIdent(arg); id != nil && pass.TypesInfo.ObjectOf(id) == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// rootIdent unwraps selectors, indexing, derefs and parens to the base
// identifier of an expression, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// exprString renders a small expression for diagnostics.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.ParenExpr:
		return "(" + exprString(x.X) + ")"
	default:
		return "expression"
	}
}
