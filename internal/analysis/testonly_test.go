package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"fast/internal/analysis/load"
)

// testOnlyAllowed lists the package-level objects that production code
// may carry although only tests use them. Each entry says why the
// object cannot live in a _test.go file.
var testOnlyAllowed = map[string]string{
	"fast/internal/analysis/analysistest.Run": "the analyzers' golden-test harness, shared by five analyzer packages' tests",
	"fast/internal/dispatch.LoopbackDialer":   "in-process workers for chaoshttp's daemon soak, a test in another package",
}

// TestNoTestOnlyObjects fails when a package-level object of a non-main
// module package is referenced by no non-test file of the module
// (commands and examples included). Such an object is either dead or
// test scaffolding: it belongs in a _test.go file (an export_test.go
// seam when another package's tests need it) or on testOnlyAllowed with
// its reason. A reference from inside the object's own declaration (a
// recursive call, a method of the type) does not count as a use.
// Exported names of packages outside internal/ are API for other
// modules and exempt.
func TestNoTestOnlyObjects(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module")
	}
	prog, err := load.Load("../..", "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	used := map[types.Object]bool{}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				for node, own := range declUnits(pkg.Info, decl) {
					ast.Inspect(node, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							if obj := pkg.Info.Uses[id]; obj != nil && obj != own {
								used[obj] = true
							}
						}
						return true
					})
				}
			}
		}
	}

	var unused []string
	for _, pkg := range prog.Pkgs {
		if pkg.Types.Name() == "main" {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if name == "_" {
				continue
			}
			obj := scope.Lookup(name)
			if obj.Exported() && !isInternal(pkg.Path) {
				continue
			}
			key := pkg.Path + "." + name
			_, allowed := testOnlyAllowed[key]
			switch {
			case used[obj] && allowed:
				t.Errorf("%s is on testOnlyAllowed but production code uses it; drop the entry", key)
			case !used[obj] && !allowed:
				unused = append(unused, prog.Fset.Position(obj.Pos()).String()+": "+key)
			}
		}
	}
	for key := range testOnlyAllowed {
		dot := strings.LastIndex(key, ".")
		pkgPath, name := key[:dot], key[dot+1:]
		if p := prog.ByPath[pkgPath]; p == nil || p.Types.Scope().Lookup(name) == nil {
			t.Errorf("testOnlyAllowed names %s, which no longer exists; drop the entry", key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no use outside tests: move it into a _test.go file or delete it", u)
	}
}

// isInternal reports whether an import path lies under an internal/
// directory, where only this module can import it.
func isInternal(path string) bool {
	return strings.Contains(path, "/internal/") || strings.HasSuffix(path, "/internal")
}

// declUnits splits a top-level declaration into the units whose
// references to themselves do not count as uses: each function, each
// type or value spec, and each method, which belongs to its receiver's
// type. It maps every unit to the object it defines (nil for a spec
// naming several values, whose cross-references are rare enough to
// count).
func declUnits(info *types.Info, decl ast.Decl) map[ast.Node]types.Object {
	units := map[ast.Node]types.Object{}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			units[d] = info.Defs[d.Name]
			break
		}
		recv := d.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if ix, ok := recv.(*ast.IndexExpr); ok {
			recv = ix.X
		}
		if ix, ok := recv.(*ast.IndexListExpr); ok {
			recv = ix.X
		}
		var owner types.Object
		if id, ok := recv.(*ast.Ident); ok {
			owner = info.Uses[id]
		}
		units[d] = owner
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				units[s] = info.Defs[s.Name]
			case *ast.ValueSpec:
				var obj types.Object
				if len(s.Names) == 1 {
					obj = info.Defs[s.Names[0]]
				}
				units[s] = obj
			}
		}
	}
	return units
}

// unsetFieldsAllowed lists the exported struct fields that no non-test
// file sets although they stay in production code, each with its
// reason. An entry naming a struct type covers all of its fields.
var unsetFieldsAllowed = map[string]string{
	"fast/internal/dispatch.Options.Dialer":     "test seam: tests substitute a fake dialer for the pool's TCP connect",
	"fast/internal/dispatch.Options.WrapDialer": "test seam: tests wrap the real dialer to inject connection faults",
	"fast/internal/dispatch/chaos.Plan":         "fault plans are written in the tests that run them",
	"fast/internal/fusion.RegionCost.BaseGM":    "the paper's B_i capacity term, which sim always passes as 0 until the exact solver's capacity rows are rebuilt",
}

// TestNoUnsetFields fails when an exported field of an exported struct
// in a non-main package is set by no non-test file of the module. A
// field is set by a composite-literal key (or an unkeyed literal), by
// an assignment or inc/dec whose target selects it, or by taking its
// address. A field nothing outside tests sets is a knob no program
// turns: it goes, or onto unsetFieldsAllowed with its reason.
func TestNoUnsetFields(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module")
	}
	prog, err := load.Load("../..", "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	set := map[*types.Var]bool{}
	for _, pkg := range prog.Pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					markLiteral(info, n, set)
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markTarget(info, lhs, set)
					}
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						markTarget(info, n.Key, set)
						markTarget(info, n.Value, set)
					}
				case *ast.IncDecStmt:
					markTarget(info, n.X, set)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markTarget(info, n.X, set)
					}
				}
				return true
			})
		}
	}

	var unset []string
	seen := map[string]bool{}
	for _, pkg := range prog.Pkgs {
		if pkg.Types.Name() == "main" {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			typeKey := pkg.Path + "." + name
			_, typeAllowed := unsetFieldsAllowed[typeKey]
			seen[typeKey] = true
			for i := 0; i < st.NumFields(); i++ {
				fld := st.Field(i)
				if !fld.Exported() {
					continue
				}
				key := typeKey + "." + fld.Name()
				seen[key] = true
				_, allowed := unsetFieldsAllowed[key]
				switch {
				case set[fld] && (allowed || typeAllowed):
					t.Errorf("%s is allowlisted on unsetFieldsAllowed but production code sets it; narrow or drop the entry", key)
				case !set[fld] && !allowed && !typeAllowed:
					unset = append(unset, prog.Fset.Position(fld.Pos()).String()+": "+key)
				}
			}
		}
	}
	for key := range unsetFieldsAllowed {
		if !seen[key] {
			t.Errorf("unsetFieldsAllowed names %s, which no longer exists; drop the entry", key)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s is set by no non-test file: delete the field or give it a caller", u)
	}
}

// markLiteral records the struct fields a composite literal sets: its
// keys, or every leading field of an unkeyed literal.
func markLiteral(info *types.Info, lit *ast.CompositeLit, set map[*types.Var]bool) {
	tv, ok := info.Types[lit]
	if !ok {
		return
	}
	typ := tv.Type
	if p, ok := typ.Underlying().(*types.Pointer); ok {
		typ = p.Elem() // &T{...} elided inside a literal of *T
	}
	st, ok := typ.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			set[st.Field(i).Origin()] = true
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
				set[v.Origin()] = true
			}
		}
	}
}

// markTarget records every field selected on the way to an assignment
// target: x.A.B = v sets B and, through it, A.
func markTarget(info *types.Info, e ast.Expr, set map[*types.Var]bool) {
	for e != nil {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				set[sel.Obj().(*types.Var).Origin()] = true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return
		}
	}
}
