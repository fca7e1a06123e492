// Package lint is the repository's own static analyzer: a small
// go/ast + go/types rule engine (stdlib only, no analysis framework
// dependency) enforcing the invariants the toolchain's correctness
// leans on but the compiler cannot check:
//
//   - maprange: iteration over a map feeding an order-sensitive sink
//     (output, early exit, accumulated slice) — the classic source of
//     non-deterministic mapper output and flaky golden tests.
//   - detrand: the global math/rand source or wall-clock reads inside
//     the deterministic mapper (internal/core), which must derive all
//     randomness from the caller's seed.
//   - errcheck: an error-returning call from this module used as a bare
//     statement, silently dropping encode/assemble/sim failures.
//   - noprint: direct fmt.Print*/log.* console output inside the mapper
//     (internal/core) or simulator (internal/sim), whose diagnostics must
//     flow through errors or the obs recorder.
//   - unusedapi: an exported function, method, type or variable that no
//     non-test code of the module uses. Its allow-list may hold only
//     reference models the tests check production code against,
//     test-support API shared across packages, and fault-injection
//     helpers, each with a reason.
//
// The rules run over the module's non-test sources; _test.go files may
// break and print from map ranges freely, and do not count as users.
// Command cgralint is the CLI, and scripts/ci.sh runs it on every build.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Finding is one rule violation.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Rule, f.Msg)
}

// Package is one loaded, type-checked package.
type Package struct {
	Path   string
	Module string // module path the package belongs to
	Fset   *token.FileSet
	Files  []*ast.File
	Info   *types.Info
	Types  *types.Package
}

// Rule is one lint check.
type Rule struct {
	// Name identifies the rule in findings and docs.
	Name string
	// Applies restricts the rule to some packages; nil means all.
	Applies func(pkgPath string) bool
	// Check reports the rule's findings in the package.
	Check func(p *Package) []Finding
	// CheckModule, set instead of Check, reports findings that need
	// every loaded package at once.
	CheckModule func(pkgs []*Package) []Finding
}

// Rules returns the full rule set.
func Rules() []*Rule {
	return []*Rule{maprangeRule, detrandRule, errcheckRule, noprintRule, unusedapiRule}
}

// Analyze loads every non-test package under the module rooted at root
// and runs the rules over each. Findings come back sorted by position.
func Analyze(root string, rules []*Rule) ([]Finding, error) {
	if rules == nil {
		rules = Rules()
	}
	l, err := newLoader(root)
	if err != nil {
		return nil, err
	}
	paths, err := l.allPackages()
	if err != nil {
		return nil, err
	}
	var out []Finding
	pkgs := make([]*Package, 0, len(paths))
	for _, path := range paths {
		p, err := l.load(path)
		if err != nil {
			return nil, fmt.Errorf("lint: loading %s: %w", path, err)
		}
		pkgs = append(pkgs, p)
		out = append(out, check(p, rules)...)
	}
	for _, r := range rules {
		if r.CheckModule != nil {
			out = append(out, r.CheckModule(pkgs)...)
		}
	}
	sortFindings(out)
	return out, nil
}

// check runs the applicable rules over one package.
func check(p *Package, rules []*Rule) []Finding {
	var out []Finding
	for _, r := range rules {
		if r.Check == nil || r.Applies != nil && !r.Applies(p.Path) {
			continue
		}
		out = append(out, r.Check(p)...)
	}
	return out
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// pkgNameOf resolves an identifier to the imported package it names,
// or "" when it is not a package qualifier.
func pkgNameOf(info *types.Info, id *ast.Ident) string {
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// calleeOf resolves a call's target function object, nil for builtins,
// conversions and indirect calls through values.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}
