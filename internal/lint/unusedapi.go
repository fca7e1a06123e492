package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// unusedapiRule: exported symbol no non-test code references.
// unusedapiRule flags exported package-level functions, methods, types
// and variables that no non-test file of the module references. The
// loader reads only non-test sources, so a symbol that only tests call
// counts as unused; commands, examples and the bench module count as
// users. A method that lets its type satisfy an interface (error,
// fmt.Stringer, the errors package's Unwrap forms, or any interface type
// the module's code refers to) is reached dynamically and stays.
// Constants and struct fields are out of scope.
var unusedapiRule = &Rule{
	Name: "unusedapi",
	CheckModule: func(pkgs []*Package) []Finding {
		return checkUnusedAPI(pkgs, unusedAllow)
	},
}

// unusedAllow names the exported symbols non-test code may keep without
// a non-test user, with the reason. It may hold only reference models
// the tests check production code against, test-support API that tests
// in other packages share, and fault-injection helpers. A key is a
// package path, or a package path followed by .Name or .Type.Method; an
// entry covers everything declared under it. An entry that covers
// nothing is itself a finding.
var unusedAllow = map[string]string{
	"repro/internal/power.StaticActivity":         "reference activity model that the simulator's measured activity is checked against",
	"repro/internal/static.Analysis.EnergyBounds": "static energy bounds that the simulator's measured energy is checked against",
	"repro/internal/interconnect":                 "stall reference model that the simulator's bank-conflict stalls are checked against",
	"repro/internal/oracle.Shrink":                "shrinker that the oracle tests use to minimize a failing graph",
	"repro/internal/oracle.WriteRepro":            ".repro writer that the oracle tests use to save a failing case",
	"repro/internal/oracle.LoadReproMeta":         ".repro reader that the oracle tests use to replay a saved case",
	"repro/internal/oracle.ReproPaths":            ".repro lister that the oracle tests use to find the saved cases",
	"repro/internal/oracle.ParseRepro":            ".repro parser that the oracle's fuzz target drives",
	"repro/internal/oracle.DefaultBackendPair":    "backend pair the oracle's cross-backend tests diff",
	"repro/internal/oracle.ModeByName":            "mode lookup the oracle tests use to replay a .repro file",
	"repro/internal/oracle.Pipeline.Sweep":        "seeded sweep that the oracle's acceptance tests run",
	"repro/internal/mapcache.EntryFiles":          "fault injection: oracle tests corrupt disk entries from another package",
	"repro/internal/mapcache.RewriteEntry":        "fault injection: oracle tests rewrite disk entries from another package",
	"repro/internal/cdfg.BlockBuilder":            "authoring DSL with one constructor per opcode, kept whole",
}

// checkUnusedAPI reports the unused exported symbols of pkgs that allow
// does not cover, and each allow entry that covers no such symbol in a
// loaded package.
func checkUnusedAPI(pkgs []*Package, allow map[string]string) []Finding {
	used := map[types.Object]bool{}
	errType := types.Universe.Lookup("error").Type()
	ifaces := map[*types.Interface]bool{
		errType.Underlying().(*types.Interface):        true,
		methodIface("String", types.Typ[types.String]): true,
		methodIface("Unwrap", errType):                 true,
		methodIface("Unwrap", types.NewSlice(errType)): true,
	}
	for _, p := range pkgs {
		recvIDs := map[*ast.Ident]bool{}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recvIDs[id] = true
						}
						return true
					})
				}
			}
		}
		for id, obj := range p.Info.Uses {
			addIfaces(ifaces, obj.Type())
			if recvIDs[id] {
				continue // a method's receiver does not use its own type
			}
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			used[obj] = true
		}
		for _, tv := range p.Info.Types {
			addIfaces(ifaces, tv.Type)
		}
	}

	keys := make([]string, 0, len(allow))
	for k := range allow {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	hits := map[string]bool{}
	var out []Finding
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				for _, id := range exportedDecls(d) {
					obj := p.Info.Defs[id]
					if obj == nil || used[obj] || satisfiesIface(obj, ifaces) {
						continue
					}
					name := symbolName(obj)
					if key := allowKey(allow, p.Path, name); key != "" {
						hits[key] = true
						continue
					}
					out = append(out, Finding{
						Pos:  p.Fset.Position(id.Pos()),
						Rule: "unusedapi",
						Msg:  fmt.Sprintf("%s.%s has no non-test user; delete it, or allow-list it with a reason", p.Types.Name(), name),
					})
				}
			}
		}
		for _, key := range keys {
			if !hits[key] && keyPkg(key) == p.Path {
				out = append(out, Finding{
					Pos:  p.Fset.Position(p.Files[0].Name.Pos()),
					Rule: "unusedapi",
					Msg:  fmt.Sprintf("allow-list entry %s covers no unused symbol; remove it", key),
				})
			}
		}
	}
	return out
}

// exportedDecls returns the exported names a top-level declaration
// introduces: functions, methods, types and variables.
func exportedDecls(d ast.Decl) []*ast.Ident {
	var ids []*ast.Ident
	switch d := d.(type) {
	case *ast.FuncDecl:
		ids = append(ids, d.Name)
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				if d.Tok == token.VAR {
					ids = append(ids, s.Names...)
				}
			}
		}
	}
	exported := ids[:0]
	for _, id := range ids {
		if id.IsExported() {
			exported = append(exported, id)
		}
	}
	return exported
}

// symbolName is Name for package-level objects and Type.Method for
// methods.
func symbolName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if named := recvNamed(recv.Type()); named != nil {
				return named.Obj().Name() + "." + fn.Name()
			}
		}
	}
	return obj.Name()
}

// allowKey returns the allow entry covering name in pkg, or "".
func allowKey(allow map[string]string, pkg, name string) string {
	keys := []string{pkg}
	if typ, _, ok := strings.Cut(name, "."); ok {
		keys = append(keys, pkg+"."+typ)
	}
	keys = append(keys, pkg+"."+name)
	for _, k := range keys {
		if _, ok := allow[k]; ok {
			return k
		}
	}
	return ""
}

// recvNamed is the named type of a method receiver, nil for none.
func recvNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := types.Unalias(t).(*types.Named)
	return named
}

// satisfiesIface reports whether obj is a method through which its
// type (or a pointer to it) implements one of ifaces.
func satisfiesIface(obj types.Object, ifaces map[*types.Interface]bool) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	named := recvNamed(fn.Type().(*types.Signature).Recv().Type())
	if named == nil {
		return false
	}
	for it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() &&
				(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
		}
	}
	return false
}

// keyPkg is the package path of an allow-list key.
func keyPkg(key string) string {
	slash := strings.LastIndex(key, "/") + 1
	pkg, _, _ := strings.Cut(key[slash:], ".")
	return key[:slash] + pkg
}

// addIfaces adds t to set when it is a non-empty interface, and so for
// each parameter when t is a signature: an argument converts to its
// parameter's interface type without naming it.
func addIfaces(set map[*types.Interface]bool, t types.Type) {
	if t == nil {
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		set[it] = true
	}
	if sig, ok := t.(*types.Signature); ok {
		for i := 0; i < sig.Params().Len(); i++ {
			addIfaces(set, sig.Params().At(i).Type())
		}
	}
}

// methodIface is interface{ name() result }: fmt.Stringer and the
// Unwrap forms that fmt and errors call through an any.
func methodIface(name string, result types.Type) *types.Interface {
	sig := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", result)), false)
	return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
}
