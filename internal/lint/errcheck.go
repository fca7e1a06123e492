package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// errcheckRule: dropped error from a module call.
// errcheckRule flags error-returning calls to this module's own
// functions used as bare statements. The toolchain's encode, assemble
// and simulate boundaries all report failure through errors; dropping
// one turns a detected illegality into silent corruption. Stdlib calls
// are exempt (idioms like sb.WriteString never fail), and an explicit
// `_ = f()` stays a visible, greppable waiver.
var errcheckRule = &Rule{
	Name:  "errcheck",
	Check: checkErrcheck,
}

var errorType = types.Universe.Lookup("error").Type()

func checkErrcheck(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(p.Info, call)
			if fn == nil || fn.Pkg() == nil || !inModule(p, fn.Pkg().Path()) {
				return true
			}
			if !returnsError(fn) {
				return true
			}
			out = append(out, Finding{
				Pos:  p.Fset.Position(call.Pos()),
				Rule: "errcheck",
				Msg:  fmt.Sprintf("error returned by %s is dropped; handle it or assign to _", fn.Name()),
			})
			return true
		})
	}
	return out
}

func inModule(p *Package, pkgPath string) bool {
	return pkgPath == p.Module || len(pkgPath) > len(p.Module) &&
		pkgPath[:len(p.Module)+1] == p.Module+"/"
}

// returnsError reports whether the function's last result is an error.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	return types.Identical(res.At(res.Len()-1).Type(), errorType)
}
