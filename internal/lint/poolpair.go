package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
)

// Poolpair tracks freelist.List acquisitions (`x := list.Get()`) — the
// module's one recycler, so every recycled record in the tree — through the
// acquiring function and reports paths — early returns, error paths, loop
// back-edges — on which the record is neither released (list.Put) nor
// ownership-transferred. A transfer is any way the record leaves the
// function's hands: passed to another call, as an argument or as the
// receiver (the Stop-ownership handoff the timer path documents), stored
// into a field, map or slice, captured by a closure, sent on a channel,
// aliased or returned. Leaks the analyzer cannot see (transfer via unsafe
// tricks) and deliberate drops take a //lint:allow poolpair annotation.
var Poolpair = &Analyzer{
	Name: "poolpair",
	Doc: "report paths where a freelist.List Get has no paired Put or ownership transfer " +
		"(calls, field/map stores, closures, channel sends and returns transfer ownership)",
	Run: runPoolpair,
}

func runPoolpair(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil || hasGotoOrLabels(fn.Body) {
				return true
			}
			for _, acq := range findAcquisitions(pass, fn.Body) {
				t := &tracker{pass: pass, acq: acq}
				f, _ := t.walkList(fn.Body.List, stFree)
				if f.norm&stHeld != 0 {
					t.leak("function end")
				}
			}
			return true
		})
	}
	return nil
}

// acquisition is one list Get bound to a local variable.
type acquisition struct {
	stmt ast.Stmt     // the acquiring assignment
	obj  types.Object // the local the record is bound to
	pos  token.Pos
}

// findAcquisitions locates `x := list.Get()` assignments where list is a
// freelist.List (or a pointer to one).
func findAcquisitions(pass *Pass, body *ast.BlockStmt) []*acquisition {
	var out []*acquisition
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok || lhs.Name == "_" {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Get" || len(call.Args) != 0 {
			return true
		}
		if !isFreelist(pass.TypesInfo.Types[sel.X].Type) {
			return true
		}
		obj := pass.TypesInfo.ObjectOf(lhs)
		if obj == nil {
			return true
		}
		out = append(out, &acquisition{stmt: as, obj: obj, pos: as.Pos()})
		return true
	})
	return out
}

// isFreelist matches the recycler by name and the final element of its
// package path, so the fixtures exercise it through a stand-in package.
func isFreelist(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "List" || named.Obj().Pkg() == nil {
		return false
	}
	return path.Base(named.Obj().Pkg().Path()) == "freelist"
}

// Abstract state: which of {held, free} are possible on some path at a
// program point. Zero means no path reaches the point.
const (
	stHeld uint8 = 1 << iota
	stFree
)

// flow is the result of walking a statement (list): states reaching normal
// fall-through, unlabeled break, and continue.
type flow struct {
	norm, brk, cont uint8
}

// tracker walks one function for one acquisition.
type tracker struct {
	pass     *Pass
	acq      *acquisition
	reported bool
}

func (t *tracker) leak(where string) {
	if t.reported {
		return // one report per acquisition: the earliest leaking path
	}
	t.reported = true
	t.pass.Reportf(t.acq.pos,
		"pooled record %s acquired here may reach %s unreleased: add the paired Put or transfer ownership on every path",
		t.acq.obj.Name(), where)
}

// walkList folds the transfer function over a statement list. seen reports
// whether the acquisition statement itself is inside the list (for
// loop-carried leak detection).
func (t *tracker) walkList(stmts []ast.Stmt, in uint8) (flow, bool) {
	out := flow{norm: in}
	seen := false
	for _, s := range stmts {
		if out.norm == 0 {
			break // unreachable
		}
		f, sawAcq := t.walkStmt(s, out.norm)
		seen = seen || sawAcq
		out.norm = f.norm
		out.brk |= f.brk
		out.cont |= f.cont
	}
	return out, seen
}

// walkStmt is the statement transfer function.
func (t *tracker) walkStmt(s ast.Stmt, in uint8) (flow, bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		if s == t.acq.stmt {
			return flow{norm: stHeld}, true
		}
		return flow{norm: t.apply(s, in)}, false
	case *ast.ReturnStmt:
		if in&stHeld != 0 && !returnsObj(t.pass, s, t.acq.obj) && !stmtTransfers(t.pass, s, t.acq.obj) {
			t.leak("this return")
		}
		return flow{}, false
	case *ast.BlockStmt:
		f, seen := t.walkList(s.List, in)
		return f, seen
	case *ast.IfStmt:
		in = t.apply(s.Init, in)
		in = t.applyExpr(s.Cond, in)
		thenF, seenT := t.walkList(s.Body.List, in)
		elseF := flow{norm: in}
		seenE := false
		if s.Else != nil {
			elseF, seenE = t.walkStmt(s.Else, in)
		}
		return flow{
			norm: thenF.norm | elseF.norm,
			brk:  thenF.brk | elseF.brk,
			cont: thenF.cont | elseF.cont,
		}, seenT || seenE
	case *ast.ForStmt:
		in = t.apply(s.Init, in)
		bodyF, seen := t.walkList(s.Body.List, in)
		if seen && (bodyF.norm|bodyF.cont)&stHeld != 0 {
			t.leak("the next loop iteration")
		}
		after := bodyF.brk
		if s.Cond != nil {
			// Conditional loops may run zero times or fall out normally.
			after |= in | bodyF.norm | bodyF.cont
		}
		return flow{norm: after}, seen
	case *ast.RangeStmt:
		bodyF, seen := t.walkList(s.Body.List, in)
		if seen && (bodyF.norm|bodyF.cont)&stHeld != 0 {
			t.leak("the next loop iteration")
		}
		return flow{norm: in | bodyF.norm | bodyF.brk | bodyF.cont}, seen
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return t.walkCases(s, in)
	case *ast.LabeledStmt:
		return t.walkStmt(s.Stmt, in)
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			return flow{brk: in}, false
		case token.CONTINUE:
			return flow{cont: in}, false
		}
		return flow{norm: in}, false
	case *ast.ExprStmt:
		if isTerminalCall(t.pass, s.X) {
			return flow{}, false
		}
		return flow{norm: t.apply(s, in)}, false
	case *ast.DeferStmt, *ast.GoStmt, *ast.SendStmt, *ast.DeclStmt, *ast.IncDecStmt:
		return flow{norm: t.apply(s, in)}, false
	default:
		return flow{norm: t.apply(s, in)}, false
	}
}

// walkCases handles switch/type-switch/select: each clause runs from the
// entry state; the union of clause exits (plus fall-past for a switch with
// no default) flows on. Unlabeled breaks inside clauses exit the switch.
func (t *tracker) walkCases(s ast.Stmt, in uint8) (flow, bool) {
	var clauses []ast.Stmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		in = t.apply(s.Init, in)
		in = t.applyExpr(s.Tag, in)
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		in = t.apply(s.Init, in)
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
		hasDefault = true // select always takes some clause
	}
	out := flow{}
	seenAny := false
	for _, c := range clauses {
		var body []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			body = c.Body
		case *ast.CommClause:
			body = c.Body
		}
		f, seen := t.walkList(body, in)
		seenAny = seenAny || seen
		out.norm |= f.norm | f.brk // unlabeled break exits the switch
		out.cont |= f.cont
	}
	if !hasDefault {
		out.norm |= in
	}
	return out, seenAny
}

// apply runs the intra-statement transfer function: a statement that
// releases or transfers the record moves every held path to free.
func (t *tracker) apply(s ast.Stmt, in uint8) uint8 {
	if s == nil || in == 0 {
		return in
	}
	if stmtTransfers(t.pass, s, t.acq.obj) {
		if in&stHeld != 0 {
			return (in &^ stHeld) | stFree
		}
	}
	return in
}

// applyExpr applies the transfer function to a bare expression (an if/switch
// condition may contain a releasing call).
func (t *tracker) applyExpr(e ast.Expr, in uint8) uint8 {
	if e == nil {
		return in
	}
	return t.apply(&ast.ExprStmt{X: e}, in)
}

// stmtTransfers reports whether the statement releases the record or
// transfers its ownership: the object passed to any non-builtin call
// (list.Put included) or made its receiver, stored anywhere (an element
// appended to a slice included), aliased, captured by a closure, sent on a
// channel, or returned.
func stmtTransfers(pass *Pass, s ast.Stmt, obj types.Object) bool {
	transfers := false
	ast.Inspect(s, func(n ast.Node) bool {
		if transfers {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltinCall(pass, n) {
				if id := n.Fun.(*ast.Ident); id.Name == "append" && len(n.Args) > 1 {
					for _, arg := range n.Args[1:] {
						transfers = transfers || bareObj(pass, arg, obj)
					}
				}
				return true
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && bareObj(pass, sel.X, obj) {
				transfers = true // a method of the record receives it like an argument
			}
			for _, arg := range n.Args {
				if bareObj(pass, arg, obj) {
					transfers = true
				}
			}
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				if bareObj(pass, rhs, obj) {
					transfers = true // alias or store: stop tracking either way
				}
			}
		case *ast.SendStmt:
			if bareObj(pass, n.Value, obj) {
				transfers = true
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if bareObj(pass, el, obj) {
					transfers = true
				}
			}
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
					transfers = true
				}
				return !transfers
			})
			return false
		}
		return true
	})
	return transfers
}

// returnsObj reports whether the return hands the record to the caller.
func returnsObj(pass *Pass, s *ast.ReturnStmt, obj types.Object) bool {
	for _, r := range s.Results {
		if bareObj(pass, r, obj) {
			return true
		}
	}
	return false
}

// bareObj reports whether e is the record value itself (possibly &x or
// parenthesized) rather than a read through it.
func bareObj(pass *Pass, e ast.Expr, obj types.Object) bool {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return pass.TypesInfo.ObjectOf(x) == obj
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return false
			}
			e = x.X
		default:
			return false
		}
	}
}

// isBuiltinCall reports whether the call is a language builtin (len, cap,
// append...), which never takes ownership.
func isBuiltinCall(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := pass.TypesInfo.ObjectOf(id).(*types.Builtin)
	return isBuiltin
}

// isTerminalCall reports whether the expression is a call that never
// returns (panic, os.Exit, log.Fatal*): held records on such paths are the
// runtime's problem, not a leak.
func isTerminalCall(pass *Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name == "panic" {
			_, isBuiltin := pass.TypesInfo.ObjectOf(fun).(*types.Builtin)
			return isBuiltin
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
				path := pkg.Imported().Path()
				name := fun.Sel.Name
				return path == "os" && name == "Exit" ||
					path == "log" && (name == "Fatal" || name == "Fatalf" || name == "Fatalln")
			}
		}
	}
	return false
}

// hasGotoOrLabels reports whether the body uses goto or labeled branches,
// which the structured walker does not model.
func hasGotoOrLabels(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if br, ok := n.(*ast.BranchStmt); ok && (br.Tok == token.GOTO || br.Label != nil) {
			found = true
		}
		return !found
	})
	return found
}
