// Package analysis is a minimal, dependency-free analogue of
// golang.org/x/tools/go/analysis for the fastlint suite (cmd/fastlint):
// enough framework to write typechecked AST analyzers with positioned
// diagnostics, golden tests (internal/analysis/analysistest), and an
// auditable suppression mechanism.
//
// One comment directive ties the suite to the engine's code:
//
//	//fast:allow <analyzer> <reason>
//
// suppresses one diagnostic of the named analyzer on the directive's
// line (or the first code line below it), making every intentional
// exception visible and greppable. A reason is mandatory: an allow
// without one is itself reported.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"fast/internal/analysis/load"
)

// InDeterministicScope reports whether the package at path is held to
// the determinism invariants detrange and nondetsource check: every
// fast/internal package except obsv (instrumentation, which reads the
// clock by design) and the analyzers themselves.
func InDeterministicScope(path string) bool {
	rest, ok := strings.CutPrefix(path, "fast/internal/")
	if !ok {
		return false
	}
	top, _, _ := strings.Cut(rest, "/")
	return top != "obsv" && top != "analysis"
}

// An Analyzer describes one fastlint pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //fast:allow
	// directives.
	Name string
	// Doc is a one-paragraph description of the invariant checked.
	Doc string
	// Run analyzes one package and reports diagnostics via pass.Report.
	Run func(pass *Pass) error
}

// A Pass connects an Analyzer to one package of the loaded program.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *load.Package
	Report   func(Diagnostic)
}

// A Diagnostic is one finding, positioned at Pos.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Run applies analyzers to the given packages of prog, filters
// //fast:allow-suppressed findings, and returns the survivors sorted by
// position. Malformed directives (unknown analyzer names, missing
// reasons) are reported as diagnostics of the pseudo-analyzer
// "directive".
func Run(prog *load.Program, pkgs []*load.Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	for _, pkg := range pkgs {
		allows, bad := collectAllows(prog.Fset, pkg, known)
		diags = append(diags, bad...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     prog.Fset,
				Pkg:      pkg,
				Report: func(d Diagnostic) {
					d.Analyzer = a.Name
					if !allows.suppresses(prog.Fset, d) {
						diags = append(diags, d)
					}
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := prog.Fset.Position(diags[i].Pos), prog.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// allowIndex records, per file, the set of (line, analyzer) pairs an
// //fast:allow directive covers.
type allowIndex map[string]map[int]map[string]bool

func (ai allowIndex) add(file string, line int, analyzer string) {
	if ai[file] == nil {
		ai[file] = map[int]map[string]bool{}
	}
	if ai[file][line] == nil {
		ai[file][line] = map[string]bool{}
	}
	ai[file][line][analyzer] = true
}

func (ai allowIndex) suppresses(fset *token.FileSet, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	return ai[pos.Filename][pos.Line][d.Analyzer]
}

// collectAllows parses every //fast:allow directive in pkg. Each
// directive covers its own source line and the first non-comment line
// after its comment group (so an allow inside a doc comment covers the
// declaration it documents).
func collectAllows(fset *token.FileSet, pkg *load.Package, known map[string]bool) (allowIndex, []Diagnostic) {
	idx := allowIndex{}
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//fast:allow")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				pos := fset.Position(c.Pos())
				if len(fields) == 0 || !known[fields[0]] {
					bad = append(bad, Diagnostic{
						Pos: c.Pos(), Analyzer: "directive",
						Message: "fast:allow needs a known analyzer name (detrange, nondetsource, poolescape)",
					})
					continue
				}
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos: c.Pos(), Analyzer: "directive",
						Message: fmt.Sprintf("fast:allow %s needs a reason", fields[0]),
					})
					continue
				}
				idx.add(pos.Filename, pos.Line, fields[0])
				// Cover the first code line after the comment group: the
				// group's end is the last comment line, so the next line
				// holds the suppressed declaration or statement.
				end := fset.Position(cg.End())
				idx.add(end.Filename, end.Line+1, fields[0])
			}
		}
	}
	return idx, bad
}
