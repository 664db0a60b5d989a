package load

import (
	"go/types"
	"testing"
)

// TestLoadModulePackage loads one real module package from source and
// checks its typechecked scope, files and info.
func TestLoadModulePackage(t *testing.T) {
	prog, err := Load(".", "fast/internal/analysis/load")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	pkg := prog.ByPath["fast/internal/analysis/load"]
	if pkg == nil {
		t.Fatalf("loaded paths %v do not include this package", keys(prog.ByPath))
	}
	if _, ok := pkg.Types.Scope().Lookup("Load").(*types.Func); !ok {
		t.Fatal("Load is not a function in the typechecked package")
	}
	if len(pkg.Files) == 0 || pkg.Info == nil {
		t.Errorf("package missing files or info: %d files", len(pkg.Files))
	}
}

// TestLoadDirs loads the GOPATH-style testdata layout: a package with a
// std import and a dependent package importing it.
func TestLoadDirs(t *testing.T) {
	prog, err := LoadDirs("testdata/src", "tiny", "tiny2")
	if err != nil {
		t.Fatalf("LoadDirs: %v", err)
	}
	tiny, tiny2 := prog.ByPath["tiny"], prog.ByPath["tiny2"]
	if tiny == nil || tiny2 == nil {
		t.Fatalf("loaded paths %v, want tiny and tiny2", keys(prog.ByPath))
	}
	if tiny2.Types.Scope().Lookup("Shout") == nil {
		t.Error("tiny2.Shout missing from typechecked scope")
	}
	// Object identity across the loaded set: tiny2's import of tiny must
	// be the same *types.Package we typechecked, not a re-import.
	for _, imp := range tiny2.Types.Imports() {
		if imp.Path() == "tiny" && imp != tiny.Types {
			t.Error("tiny2 imports a different tiny package object")
		}
	}
}

func keys(m map[string]*Package) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
