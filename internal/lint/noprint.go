package lint

import (
	"go/ast"
	"strings"
)

// noprintRule: direct console output inside internal/core, internal/sim
// or internal/telemetry.
// noprintRule keeps the mapper, the simulator and the telemetry server
// free of direct console output: the first two run inside worker pools
// and benchmarks where stray writes interleave nondeterministically and
// corrupt golden outputs, and the telemetry server is embedded in every
// CLI whose stdout is a golden-diffed report (its handlers must write
// to the response writer, its embedders own stderr). Diagnostics must
// flow through returned errors or the obs recorder (internal/obs),
// never fmt.Print*/log.* side effects. fmt.Fprint* to a caller-supplied
// writer and fmt.Sprintf stay legal.
var noprintRule = &Rule{
	Name: "noprint",
	Applies: func(pkgPath string) bool {
		return strings.HasSuffix(pkgPath, "internal/core") ||
			strings.HasSuffix(pkgPath, "internal/sim") ||
			strings.HasSuffix(pkgPath, "internal/telemetry")
	},
	Check: checkNoprint,
}

// stdoutPrintFuncs are the fmt functions that write to os.Stdout
// implicitly.
var stdoutPrintFuncs = map[string]bool{
	"Print":   true,
	"Printf":  true,
	"Println": true,
}

func checkNoprint(p *Package) []Finding {
	where := "the mapper/simulator"
	if strings.HasSuffix(p.Path, "internal/telemetry") {
		where = "the telemetry server"
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, ok := ast.Unparen(sel.X).(*ast.Ident)
			if !ok {
				return true
			}
			switch pkgNameOf(p.Info, x) {
			case "fmt":
				if stdoutPrintFuncs[sel.Sel.Name] {
					out = append(out, Finding{
						Pos:  p.Fset.Position(call.Pos()),
						Rule: "noprint",
						Msg: "fmt." + sel.Sel.Name + " writes to stdout inside " + where + "; " +
							"return an error or record through the obs recorder",
					})
				}
			case "log":
				out = append(out, Finding{
					Pos:  p.Fset.Position(call.Pos()),
					Rule: "noprint",
					Msg: "log." + sel.Sel.Name + " inside " + where + "; " +
						"return an error or record through the obs recorder",
				})
			}
			return true
		})
	}
	return out
}
