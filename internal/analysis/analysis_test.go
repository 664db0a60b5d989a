package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"fast/internal/analysis/load"
)

// loadSrc typechecks one import-free source file into a load.Program,
// so the directive machinery can be tested without touching the disk.
func loadSrc(t *testing.T, src string) (*load.Program, *load.Package) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := load.NewInfo()
	conf := types.Config{}
	tpkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	pkg := &load.Package{Path: "p", Files: []*ast.File{f}, Types: tpkg, Info: info}
	prog := &load.Program{
		Fset:   fset,
		Pkgs:   []*load.Package{pkg},
		ByPath: map[string]*load.Package{"p": pkg},
	}
	return prog, pkg
}

// TestRunSuppression drives Run end to end: a toy analyzer that reports
// every function declaration, filtered through good, unknown-name, and
// reason-less //fast:allow directives.
func TestRunSuppression(t *testing.T) {
	prog, _ := loadSrc(t, `package p

func a() {}

//fast:allow toy intentional fixture
func b() {}

//fast:allow nosuch xyz
func c() {}

//fast:allow toy
func d() {}
`)
	toy := &Analyzer{
		Name: "toy",
		Doc:  "reports every function declaration",
		Run: func(pass *Pass) error {
			for _, f := range pass.Pkg.Files {
				for _, decl := range f.Decls {
					if fd, ok := decl.(*ast.FuncDecl); ok {
						pass.Report(Diagnostic{Pos: fd.Pos(), Message: "func " + fd.Name.Name})
					}
				}
			}
			return nil
		},
	}
	diags, err := Run(prog, prog.Pkgs, []*Analyzer{toy})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer+": "+d.Message)
	}
	want := []string{
		"toy: func a", // no allow
		"directive: fast:allow needs a known analyzer name (detrange, nondetsource, poolescape)", // nosuch
		"toy: func c", // unknown-name allow does not suppress
		"directive: fast:allow toy needs a reason",
		"toy: func d", // reason-less allow does not suppress
	}
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics %q, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diag[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	// Sorted by position: a before c before d.
	for i := 1; i < len(diags); i++ {
		if diags[i-1].Pos > diags[i].Pos {
			t.Errorf("diagnostics not position-sorted at %d", i)
		}
	}
}

// TestDeterministicScope: the one scope both determinism analyzers read
// covers every internal package but the instrumentation and the
// analyzers themselves.
func TestDeterministicScope(t *testing.T) {
	for path, want := range map[string]bool{
		"fast/internal/models":            true,
		"fast/internal/obsv":              false,
		"fast/internal/analysis/detrange": false,
		"fast/cmd/fast-serve":             false,
	} {
		if got := InDeterministicScope(path); got != want {
			t.Errorf("InDeterministicScope(%q) = %v, want %v", path, got, want)
		}
	}
}
