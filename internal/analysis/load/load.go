// Package load builds a typechecked view of this module's packages for
// the fastlint analyzers (internal/analysis) using only the standard
// library: package metadata comes from `go list -deps -export -json`,
// module packages are parsed and typechecked from source in dependency
// order, and standard-library dependencies are imported from the compiled
// export data the go command already maintains in its build cache.
//
// This is a deliberately small, offline replacement for
// golang.org/x/tools/go/packages: the module has no third-party
// dependencies, so the only imports a source-typechecked package can
// reach are (a) other module packages — which we typecheck from source
// first, sharing one *types* universe so object identity holds across
// packages — and (b) the standard library, for which export data is
// authoritative and cheap.
package load

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one typechecked module package.
type Package struct {
	// Path is the import path (e.g. "fast/internal/sim").
	Path string
	// Dir is the directory holding the package sources.
	Dir string
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types is the typechecked package.
	Types *types.Package
	// Info holds the typechecker results for Files.
	Info *types.Info
}

// Program is the typechecked closure of the requested module packages.
type Program struct {
	Fset *token.FileSet
	// Pkgs holds the module packages in dependency order (dependencies
	// before dependents, as reported by go list -deps).
	Pkgs []*Package
	// ByPath indexes Pkgs by import path.
	ByPath map[string]*Package
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Standard   bool
	Export     string
	GoFiles    []string
	Module     *struct{ Path string }
}

// NewInfo returns a types.Info with every map the analyzers consume.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// Load typechecks the module packages matched by patterns (plus their
// module dependencies) rooted at dir. Patterns default to ./... when
// empty. The go command must be on PATH; no network access is needed.
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,Standard,Export,GoFiles,Module"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return nil, fmt.Errorf("go list: %v: %s", err, ee.Stderr)
		}
		return nil, fmt.Errorf("go list: %v", err)
	}

	prog := &Program{Fset: token.NewFileSet(), ByPath: map[string]*Package{}}
	exports := map[string]string{} // import path -> export data file (non-module deps)

	dec := json.NewDecoder(strings.NewReader(string(out)))
	var mods []listPackage
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if lp.Module == nil || lp.Standard {
			exports[lp.ImportPath] = lp.Export
			continue
		}
		mods = append(mods, lp)
	}

	imp := newChainImporter(prog, exports)
	for _, lp := range mods {
		pkg, err := typecheck(prog, imp, lp)
		if err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
		prog.ByPath[pkg.Path] = pkg
	}
	return prog, nil
}

// LoadDirs typechecks GOPATH-style package directories (as used by the
// analysistest testdata layout): each entry of dirs is loaded as the
// package whose import path is its path relative to root. Imports
// resolve first against the loaded set, then against standard-library
// export data. Directories must be listed so that dependencies precede
// dependents.
func LoadDirs(root string, dirs ...string) (*Program, error) {
	prog := &Program{Fset: token.NewFileSet(), ByPath: map[string]*Package{}}

	// Collect the standard-library imports of every testdata file up
	// front so one `go list` run resolves all export data.
	var lps []listPackage
	stdSet := map[string]bool{}
	for _, d := range dirs {
		abs := filepath.Join(root, d)
		ents, err := os.ReadDir(abs)
		if err != nil {
			return nil, err
		}
		lp := listPackage{ImportPath: filepath.ToSlash(d), Dir: abs}
		for _, e := range ents {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			lp.GoFiles = append(lp.GoFiles, name)
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(abs, name), nil, parser.ImportsOnly)
			if err != nil {
				return nil, err
			}
			for _, im := range f.Imports {
				path := strings.Trim(im.Path.Value, `"`)
				if !strings.Contains(path, ".") { // std packages have no dot in the first element
					stdSet[path] = true
				}
			}
		}
		sort.Strings(lp.GoFiles)
		lps = append(lps, lp)
	}
	exports, err := stdExports(root, stdSet)
	if err != nil {
		return nil, err
	}

	imp := newChainImporter(prog, exports)
	for _, lp := range lps {
		// Drop local (loaded-set) imports from the std set: they were
		// conservatively collected above when dot-free.
		pkg, err := typecheck(prog, imp, lp)
		if err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
		prog.ByPath[pkg.Path] = pkg
	}
	return prog, nil
}

// stdExports resolves export-data files for the given standard-library
// import paths (unknown paths are skipped — they may be loaded-set
// package names that happen to be dot-free).
func stdExports(dir string, paths map[string]bool) (map[string]string, error) {
	var list []string
	for p := range paths {
		list = append(list, p)
	}
	sort.Strings(list)
	exports := map[string]string{}
	if len(list) == 0 {
		return exports, nil
	}
	args := append([]string{"list", "-e", "-deps", "-export", "-json=ImportPath,Export"}, list...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return nil, fmt.Errorf("go list (std exports): %v: %s", err, ee.Stderr)
		}
		return nil, fmt.Errorf("go list (std exports): %v", err)
	}
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		var lp struct{ ImportPath, Export string }
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
	}
	return exports, nil
}

// typecheck parses and checks one package.
func typecheck(prog *Program, imp types.Importer, lp listPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(prog.Fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(lp.ImportPath, prog.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", lp.ImportPath, err)
	}
	return &Package{Path: lp.ImportPath, Dir: lp.Dir, Files: files, Types: tpkg, Info: info}, nil
}

// chainImporter resolves module packages from the program's
// already-typechecked set and everything else from gc export data.
type chainImporter struct {
	prog    *Program
	gc      types.Importer
	exports map[string]string
}

func newChainImporter(prog *Program, exports map[string]string) types.Importer {
	gc := importer.ForCompiler(prog.Fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return &chainImporter{prog: prog, gc: gc, exports: exports}
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.prog.ByPath[path]; ok {
		return p.Types, nil
	}
	return c.gc.Import(path)
}
