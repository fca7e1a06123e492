package lint

import (
	"go/ast"
	"strings"
)

// detrandRule: nondeterminism source inside the deterministic mapper,
// simulator, mapping cache or telemetry server.
// detrandRule guards the reproducibility promise of the mapper and the
// simulator: internal/core and internal/sim must derive every random
// choice from the caller's seed (the paper's stochastic pruning is
// re-runnable by seed) and must not branch on the wall clock. The
// global math/rand functions and bare time.Now reads are flagged;
// rand.New(rand.NewSource(seed)) and time.Now used purely for
// time.Since durations (the CompileTime stat) are fine. Environment
// reads (the os package's Getenv and LookupEnv) are flagged too —
// mappings must be a function of the graph, grid and core.Options, cycle
// counts of the bitstream and the memory image, and cache keys of the
// request content, never of the process environment.
//
// internal/telemetry is held to the same bar: Flags.Start builds the
// recorder every mapper worker writes to, and the server renders that
// recorder's registry, so both must be a function of the flags and the
// metrics they are handed — no wall-clock branching, no global rand,
// and configuration threaded through Flags and Config rather than read
// from the environment.
var detrandRule = &Rule{
	Name: "detrand",
	Applies: func(pkgPath string) bool {
		return strings.HasSuffix(pkgPath, "internal/core") ||
			strings.HasSuffix(pkgPath, "internal/sim") ||
			strings.HasSuffix(pkgPath, "internal/mapcache") ||
			strings.HasSuffix(pkgPath, "internal/telemetry")
	},
	Check: checkDetrand,
}

// seededRandCtors are the math/rand functions that build an explicitly
// seeded generator instead of drawing from the global source.
var seededRandCtors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func checkDetrand(p *Package) []Finding {
	where := "mapper"
	switch {
	case strings.HasSuffix(p.Path, "internal/sim"):
		where = "simulator"
	case strings.HasSuffix(p.Path, "internal/mapcache"):
		where = "mapping cache"
	case strings.HasSuffix(p.Path, "internal/telemetry"):
		where = "telemetry server"
	}
	var out []Finding
	for _, f := range p.Files {
		parents := parentMap(f)
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
			case "math/rand", "math/rand/v2":
				if !seededRandCtors[sel.Sel.Name] {
					out = append(out, Finding{
						Pos:  p.Fset.Position(call.Pos()),
						Rule: "detrand",
						Msg: "global math/rand source in the deterministic " + where + "; " +
							"draw from rand.New(rand.NewSource(seed))",
					})
				}
			case "time":
				if sel.Sel.Name == "Now" && !nowOnlyTimesDurations(p, f, parents, call) {
					out = append(out, Finding{
						Pos:  p.Fset.Position(call.Pos()),
						Rule: "detrand",
						Msg: "wall-clock read in the deterministic " + where + "; " +
							"time.Now is only allowed to feed time.Since",
					})
				}
			case "os":
				if sel.Sel.Name == "Getenv" || sel.Sel.Name == "LookupEnv" {
					out = append(out, Finding{
						Pos:  p.Fset.Position(call.Pos()),
						Rule: "detrand",
						Msg: "environment read in the deterministic " + where + "; " +
							"thread configuration through options instead",
					})
				}
			}
			return true
		})
	}
	return out
}

// nowOnlyTimesDurations reports whether a time.Now() call only measures
// durations: either it is directly the argument of time.Since, or it is
// assigned to a variable whose every use is an argument of time.Since.
func nowOnlyTimesDurations(p *Package, f *ast.File, parents map[ast.Node]ast.Node, call *ast.CallExpr) bool {
	if isSinceArg(p, parents, call) {
		return true
	}
	asg, ok := parents[call].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	id, ok := ast.Unparen(asg.Lhs[0]).(*ast.Ident)
	if !ok {
		return false
	}
	obj := p.Info.Defs[id]
	if obj == nil {
		obj = p.Info.Uses[id]
	}
	if obj == nil {
		return false
	}
	ok = true
	ast.Inspect(f, func(n ast.Node) bool {
		use, isIdent := n.(*ast.Ident)
		if !isIdent || p.Info.Uses[use] != obj {
			return true
		}
		if !isSinceArg(p, parents, use) {
			ok = false
		}
		return ok
	})
	return ok
}

// isSinceArg reports whether n is the sole argument of a time.Since
// call.
func isSinceArg(p *Package, parents map[ast.Node]ast.Node, n ast.Node) bool {
	parent := parents[n]
	for {
		pe, ok := parent.(*ast.ParenExpr)
		if !ok {
			break
		}
		parent = parents[pe]
	}
	call, ok := parent.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Since" {
		return false
	}
	x, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && pkgNameOf(p.Info, x) == "time"
}

// parentMap records each node's syntactic parent within the file.
func parentMap(f *ast.File) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
