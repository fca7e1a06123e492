package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// maprangeRule: map iteration feeding an order-sensitive sink.
// maprangeRule flags map iterations whose body feeds an order-sensitive
// sink. Go randomizes map iteration order on purpose; the mapper, the
// renderers and the oracle all promise deterministic output, so a map
// range may only do order-independent work (or iterate sorted keys).
//
// Sinks: printing/writing, breaking out of the loop, returning a
// non-constant value, sending on a channel, and appending to a slice
// declared outside the loop that is never sorted afterwards.
var maprangeRule = &Rule{
	Name:  "maprange",
	Check: checkMaprange,
}

func checkMaprange(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok || !isMapRange(p, rs) {
					return true
				}
				out = append(out, mapRangeSinks(p, fd, rs)...)
				return true
			})
		}
	}
	return out
}

func isMapRange(p *Package, rs *ast.RangeStmt) bool {
	tv, ok := p.Info.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// mapRangeSinks walks the loop body tracking whether an unlabeled break
// still targets the map range (false once inside a nested loop, switch
// or select).
func mapRangeSinks(p *Package, fd *ast.FuncDecl, rs *ast.RangeStmt) []Finding {
	var out []Finding
	flag := func(n ast.Node, format string, args ...any) {
		out = append(out, Finding{
			Pos:  p.Fset.Position(n.Pos()),
			Rule: "maprange",
			Msg:  fmt.Sprintf(format, args...),
		})
	}

	var walkStmt func(s ast.Stmt, breakable bool)
	walkStmts := func(list []ast.Stmt, breakable bool) {
		for _, s := range list {
			walkStmt(s, breakable)
		}
	}
	walkStmt = func(s ast.Stmt, breakable bool) {
		switch st := s.(type) {
		case *ast.BlockStmt:
			walkStmts(st.List, breakable)
		case *ast.IfStmt:
			walkStmt(st.Body, breakable)
			if st.Else != nil {
				walkStmt(st.Else, breakable)
			}
		case *ast.ForStmt:
			walkStmt(st.Body, true)
		case *ast.RangeStmt:
			walkStmt(st.Body, true)
		case *ast.SwitchStmt:
			for _, c := range st.Body.List {
				walkStmts(c.(*ast.CaseClause).Body, true)
			}
		case *ast.TypeSwitchStmt:
			for _, c := range st.Body.List {
				walkStmts(c.(*ast.CaseClause).Body, true)
			}
		case *ast.SelectStmt:
			for _, c := range st.Body.List {
				walkStmts(c.(*ast.CommClause).Body, true)
			}
		case *ast.LabeledStmt:
			walkStmt(st.Stmt, breakable)
		case *ast.BranchStmt:
			if st.Tok == token.BREAK && st.Label == nil && !breakable {
				flag(st, "break out of a map iteration: which entry stops the loop depends on map order")
			}
		case *ast.ReturnStmt:
			if ret := nonConstResult(p, st); ret != nil {
				flag(st, "return inside a map iteration: the returned value depends on map order")
			}
		case *ast.SendStmt:
			flag(st, "channel send inside a map iteration: message order depends on map order")
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok && isOutputCall(p, call) {
				flag(st, "output inside a map iteration: line order depends on map order")
			}
		case *ast.AssignStmt:
			checkLoopAppend(p, fd, rs, st, flag)
		}
	}
	walkStmt(rs.Body, false)
	return out
}

// nonConstResult returns the first order-dependent return operand:
// constants and nil are outcome-stable regardless of which iteration
// returns them, anything else is not.
func nonConstResult(p *Package, ret *ast.ReturnStmt) ast.Expr {
	for _, e := range ret.Results {
		tv, ok := p.Info.Types[ast.Unparen(e)]
		if !ok {
			return e
		}
		if tv.Value == nil && !tv.IsNil() {
			return e
		}
	}
	return nil
}

// isOutputCall reports whether a statement-level call emits text: the
// fmt/log print families, or a writer-shaped method.
func isOutputCall(p *Package, call *ast.CallExpr) bool {
	fn := calleeOf(p.Info, call)
	if fn == nil {
		return false
	}
	name := fn.Name()
	if pkg := fn.Pkg(); pkg != nil && (pkg.Path() == "fmt" || pkg.Path() == "log") {
		switch {
		case len(name) >= 5 && name[:5] == "Print":
			return true
		case len(name) >= 6 && name[:6] == "Fprint":
			return true
		}
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		switch name {
		case "Write", "WriteString", "WriteByte", "WriteRune", "Print", "Printf", "Println":
			return true
		}
	}
	return false
}

// checkLoopAppend flags `x = append(x, ...)` where x outlives the loop
// and is never handed to a sort afterwards.
func checkLoopAppend(p *Package, fd *ast.FuncDecl, rs *ast.RangeStmt,
	st *ast.AssignStmt, flag func(ast.Node, string, ...any)) {
	for i, rhs := range st.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isBuiltin(p, call.Fun, "append") || i >= len(st.Lhs) {
			continue
		}
		id, ok := ast.Unparen(st.Lhs[i]).(*ast.Ident)
		if !ok {
			continue
		}
		obj := p.Info.Uses[id]
		if obj == nil {
			obj = p.Info.Defs[id]
		}
		if obj == nil {
			continue
		}
		// Only slices accumulated across iterations matter; a variable
		// scoped inside the loop dies with the iteration.
		if obj.Pos() >= rs.Pos() && obj.Pos() < rs.End() {
			continue
		}
		if sortedAfter(p, fd, rs, obj) {
			continue
		}
		flag(st, "append to %q inside a map iteration without a later sort: element order depends on map order", id.Name)
	}
}

func isBuiltin(p *Package, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := p.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// sortedAfter reports whether the function sorts obj (sort.* or
// slices.Sort* mentioning it, or a Sort method call) after the loop.
func sortedAfter(p *Package, fd *ast.FuncDecl, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() {
			return true
		}
		if !isSortCall(p, call) || !mentions(p, call, obj) {
			return true
		}
		found = true
		return false
	})
	return found
}

func isSortCall(p *Package, call *ast.CallExpr) bool {
	fn := calleeOf(p.Info, call)
	if fn == nil {
		return false
	}
	if pkg := fn.Pkg(); pkg != nil && (pkg.Path() == "sort" || pkg.Path() == "slices") {
		return true
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && fn.Name() == "Sort" {
		return true
	}
	return false
}

func mentions(p *Package, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && p.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
