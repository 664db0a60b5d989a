package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"fast/internal/analysis/load"
)

// testOnlyAllowed lists the package-level objects and the methods
// (keyed package.Type.Method) that production code may carry although
// only tests use them. Each entry says why it cannot live in a _test.go
// file.
var testOnlyAllowed = map[string]string{
	"fast/internal/analysis/analysistest.Run": "the analyzers' golden-test harness, shared by the three analyzers' tests and its own",
	"fast/internal/dispatch.LoopbackDialer":   "in-process workers for chaoshttp's daemon soak, a test in another package",

	"fast/internal/arch.Space.Encode":             "Decode's inverse: core's tests and the root benchmarks seed studies from a named design",
	"fast/internal/arch.Space.Random":             "the random-design draw the property tests of sim, mapping and power share",
	"fast/internal/dispatch/chaos.Plan.StoreHook": "cross-package test seam: chaoshttp's soak faults the store with the plan",
	"fast/internal/dispatch/chaos.Plan.Wrap":      "cross-package test seam: dispatch's and chaoshttp's tests fault the pool's dialer with the plan",
	"fast/internal/hlo.Graph.Outputs":             "models' tests check each builder's output ops",
	"fast/internal/power.Budget.Within":           "public API through fast.Budget: the package examples and the root tests call it",
	"fast/internal/search.Trial.Equal":            "the bit-exact trial comparison the tests of search, core, dispatch and store share",
	"fast/internal/store.Store.SetFaultHook":      "cross-package test seam: serve's and chaoshttp's tests inject store faults",
	"fast/internal/store.Study.Dir":               "serve's recovery tests damage a study's files in place",
	"fast/internal/tensor.Shape.Equal":            "hlo's builder tests compare output shapes",
}

// TestNoTestOnlyObjects fails when a package-level object of a non-main
// module package, or a method declared on one of its named types, is
// referenced by no non-test file of the module (commands and examples
// included). Such an object is either dead or test scaffolding: it
// belongs in a _test.go file (an export_test.go seam when another
// package's tests need it) or on testOnlyAllowed with its reason. A
// reference from inside the object's own declaration (a recursive call,
// a method of the type, a method's own body) does not count as a use.
// A method that implements an interface the module or its imports
// declare (error, fmt.Stringer, search.Optimizer, ...) is reached
// through that interface and exempt. Exported names of packages outside
// internal/ are API for other modules and exempt.
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
							obj := pkg.Info.Uses[id]
							if f, ok := obj.(*types.Func); ok {
								obj = f.Origin() // a method of an instantiated generic type
							}
							if obj != nil && !slices.Contains(own, obj) {
								used[obj] = true
							}
						}
						return true
					})
				}
			}
		}
	}

	ifaces := interfaces(prog)
	var unused []string
	seen := map[string]bool{}
	check := func(key string, obj types.Object) {
		seen[key] = true
		_, allowed := testOnlyAllowed[key]
		switch {
		case used[obj] && allowed:
			t.Errorf("%s is on testOnlyAllowed but production code uses it; drop the entry", key)
		case !used[obj] && !allowed:
			unused = append(unused, prog.Fset.Position(obj.Pos()).String()+": "+key)
		}
	}
	for _, pkg := range prog.Pkgs {
		if pkg.Types.Name() == "main" {
			continue
		}
		api := !isInternal(pkg.Path)
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if name == "_" {
				continue
			}
			obj := scope.Lookup(name)
			if !(obj.Exported() && api) {
				check(pkg.Path+"."+name, obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && tn.Exported() && api || protocolMethods[m.Name()] || implementsAny(named, m, ifaces) {
					continue
				}
				check(pkg.Path+"."+name+"."+m.Name(), m)
			}
		}
	}
	for key := range testOnlyAllowed {
		if !seen[key] {
			t.Errorf("testOnlyAllowed names %s, which no longer exists; drop the entry", key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no use outside tests: move it into a _test.go file or delete it", u)
	}
}

// interfaces collects the non-empty, non-generic interface types that
// the module's packages and everything they import declare at package
// level, plus error.
func interfaces(prog *load.Program) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range prog.Pkgs {
		walk(pkg.Types)
	}
	return ifaces
}

// protocolMethods are the methods the standard library reaches through
// anonymous interfaces, which interfaces cannot collect.
var protocolMethods = map[string]bool{
	"Unwrap": true, // errors.Is, errors.As, errors.Unwrap
}

// implementsAny reports whether T or *T implements one of ifaces that
// declares method m.
func implementsAny(t *types.Named, m *types.Func, ifaces []*types.Interface) bool {
	if t.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(t)
	for _, it := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, m.Pkg(), m.Name()); obj == nil {
			continue
		}
		if types.Implements(t, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

// isInternal reports whether an import path lies under an internal/
// directory, where only this module can import it.
func isInternal(path string) bool {
	return strings.Contains(path, "/internal/") || strings.HasSuffix(path, "/internal")
}

// declUnits splits a top-level declaration into the units whose
// references to themselves do not count as uses: each function, each
// type or value spec, and each method, which belongs to its receiver's
// type. It maps every unit to the objects it defines: a method's are
// its receiver's type and the method itself, a spec naming several
// values has none (their cross-references are rare enough to count).
func declUnits(info *types.Info, decl ast.Decl) map[ast.Node][]types.Object {
	units := map[ast.Node][]types.Object{}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			units[d] = []types.Object{info.Defs[d.Name]}
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
		units[d] = []types.Object{owner, info.Defs[d.Name]}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				units[s] = []types.Object{info.Defs[s.Name]}
			case *ast.ValueSpec:
				var own []types.Object
				if len(s.Names) == 1 {
					own = []types.Object{info.Defs[s.Names[0]]}
				}
				units[s] = own
			}
		}
	}
	return units
}

// unsetFieldsAllowed lists the exported struct fields that no non-test
// file sets although they stay in production code, each with its
// reason. An entry naming a struct type covers all of its fields.
var unsetFieldsAllowed = map[string]string{
	"fast/internal/dispatch.Options.Dialer":        "test seam: tests substitute a fake dialer for the pool's TCP connect",
	"fast/internal/dispatch.Options.WrapDialer":    "test seam: tests wrap the real dialer to inject connection faults",
	"fast/internal/dispatch.Options.ChunkTimeout":  "cross-package test seam: the tests of dispatch and chaoshttp shorten the per-attempt deadline",
	"fast/internal/dispatch.Options.RespawnBudget": "cross-package test seam: the tests of dispatch and chaoshttp shorten the re-dial allowance",
	"fast/internal/dispatch/chaos.Plan":            "fault plans are written in the tests that run them",
	"fast/internal/fusion.RegionCost.BaseGM":       "the paper's B_i capacity term, which sim always passes as 0 until the exact solver's capacity rows are rebuilt",
}

// TestNoUnsetFields fails when an exported field of an exported struct
// in a non-main package is set by no non-test file of the module
// (fieldsSet says what sets a field). A field nothing outside tests
// sets is a knob no program turns: it goes, or onto unsetFieldsAllowed
// with its reason.
func TestNoUnsetFields(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module")
	}
	prog, err := load.Load("../..", "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	set := fieldsSet(prog)
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

// fieldsSet returns the struct fields prog's files set: by a
// composite-literal key (or an unkeyed literal), by an assignment or
// inc/dec whose target selects the field, by taking its address, or by
// passing the address of its struct to encoding/json's decoders
// (markDecoded). A write inside the struct's own withDefaults method
// fills in that method's copy and does not count.
func fieldsSet(prog *load.Program) map[*types.Var]bool {
	set := map[*types.Var]bool{}
	for _, pkg := range prog.Pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				own := defaultsOf(info, decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						markLiteral(info, n, set)
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							markTarget(info, lhs, own, set)
						}
					case *ast.RangeStmt:
						if n.Tok == token.ASSIGN {
							markTarget(info, n.Key, own, set)
							markTarget(info, n.Value, own, set)
						}
					case *ast.IncDecStmt:
						markTarget(info, n.X, own, set)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							markTarget(info, n.X, own, set)
						}
					case *ast.CallExpr:
						markDecoded(info, n, set)
					}
					return true
				})
			}
		}
	}
	return set
}

// TestDecodedFieldsCountAsSet holds fieldsSet to encoding/json on
// testdata/src/jsonset: the fields of a struct decoded by
// json.Unmarshal or a json.Decoder count as set, an embedded struct's
// included, but not one its json tag hides, and not those of a struct
// that is only encoded.
func TestDecodedFieldsCountAsSet(t *testing.T) {
	prog, err := load.LoadDirs("testdata/src", "jsonset")
	if err != nil {
		t.Fatal(err)
	}
	set := fieldsSet(prog)
	scope := prog.ByPath["jsonset"].Types.Scope()
	for key, want := range map[string]bool{
		"Decoded.A": true, "Decoded.B": true, "Inner.C": true, "Streamed.D": true,
		"Decoded.Hidden": false, "Encoded.E": false,
	} {
		typ, field, _ := strings.Cut(key, ".")
		st := scope.Lookup(typ).Type().Underlying().(*types.Struct)
		var v *types.Var
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == field {
				v = st.Field(i)
			}
		}
		if v == nil {
			t.Fatalf("jsonset has no field %s", key)
		}
		if set[v] != want {
			t.Errorf("%s counts as set: %v, want %v", key, set[v], want)
		}
	}
}

// markDecoded records the fields encoding/json fills when call passes
// &x to json.Unmarshal or (*json.Decoder).Decode: every exported field
// of x's struct type whose json tag is not "-", and through an embedded
// struct the fields it promotes.
func markDecoded(info *types.Info, call *ast.CallExpr, set map[*types.Var]bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || (fn.FullName() != "encoding/json.Unmarshal" && fn.FullName() != "(*encoding/json.Decoder).Decode") {
		return
	}
	addr, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.UnaryExpr)
	if !ok || addr.Op != token.AND {
		return
	}
	markJSONFields(info.TypeOf(addr.X), set)
}

// markJSONFields records the JSON-visible exported fields of typ, a
// struct type, recursing into embedded structs.
func markJSONFields(typ types.Type, set map[*types.Var]bool) {
	if p, ok := typ.Underlying().(*types.Pointer); ok {
		typ = p.Elem()
	}
	st, ok := typ.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() || reflect.StructTag(st.Tag(i)).Get("json") == "-" {
			continue
		}
		set[f.Origin()] = true
		if f.Embedded() {
			markJSONFields(f.Type(), set)
		}
	}
}

// hasField reports whether v is one of st's fields; false for a nil st.
func hasField(st *types.Struct, v *types.Var) bool {
	for i := 0; st != nil && i < st.NumFields(); i++ {
		if st.Field(i) == v {
			return true
		}
	}
	return false
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

// defaultsOf returns the struct a withDefaults method declaration
// fills in, its receiver's, or nil for any other declaration.
func defaultsOf(info *types.Info, decl ast.Decl) *types.Struct {
	fd, ok := decl.(*ast.FuncDecl)
	if !ok || fd.Recv == nil || fd.Name.Name != "withDefaults" {
		return nil
	}
	t := info.Defs[fd.Name].Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// markTarget records every field selected on the way to an assignment
// target: x.A.B = v sets B and, through it, A. Fields of skip, the
// struct a withDefaults method fills in, are not recorded.
func markTarget(info *types.Info, e ast.Expr, skip *types.Struct, set map[*types.Var]bool) {
	for e != nil {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				if v := sel.Obj().(*types.Var); !hasField(skip, v) {
					set[v.Origin()] = true
				}
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
