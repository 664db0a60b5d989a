package analysis

import (
	"go/ast"
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
