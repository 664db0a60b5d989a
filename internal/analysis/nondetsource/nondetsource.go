// Package nondetsource forbids sources of run-to-run nondeterminism in
// the engine's evaluation and transcript paths: wall-clock reads
// (time.Now and friends), the globally seeded math/rand generator, and
// select statements that choose among multiple ready channels. The
// ask/tell transcript is provably parallelism-invariant and the
// simulator bit-identical across runs only as long as no such source
// leaks into those paths.
//
// No evaluation path reads the wall clock: the exact solver's budget
// is a count of branch-and-bound nodes. The clock reads left are
// scheduling and logging seams in dispatch and serve, and each carries
// an auditable //fast:allow nondetsource directive saying why it cannot
// reach the transcript. Seeded *rand.Rand
// instances (rand.New(rand.NewSource(seed))) are deterministic and not
// reported; only the package-level generator is.
package nondetsource

import (
	"fmt"
	"go/ast"
	"go/types"

	"fast/internal/analysis"
)

// inScope is analysis.InDeterministicScope; a test points it at its
// testdata package.
var inScope = analysis.InDeterministicScope

// Analyzer is the nondetsource pass.
var Analyzer = &analysis.Analyzer{
	Name: "nondetsource",
	Doc:  "forbid wall-clock, global math/rand, and multi-way select in deterministic paths",
	Run:  run,
}

// clockFuncs are the time package functions that read the wall clock.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// globalRand are the package-level math/rand (and v2) functions backed
// by the shared, non-reproducibly seeded generator. Constructors (New,
// NewSource, NewPCG, …) are deterministic and excluded.
var globalRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
	// math/rand/v2 spellings.
	"N": true, "IntN": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "UintN": true, "Uint": true,
	"Uint32N": true, "Uint64N": true,
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path) {
		return nil
	}
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, info, n)
			case *ast.SelectStmt:
				checkSelect(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, info *types.Info, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if info.Selections[sel] != nil {
		return // a method call (e.g. on a seeded *rand.Rand) is fine
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if clockFuncs[fn.Name()] {
			pass.Report(analysis.Diagnostic{Pos: call.Pos(), Message: fmt.Sprintf(
				"time.%s reads the wall clock in a deterministic path (only a scheduling seam that cannot reach the transcript may, behind //fast:allow)", fn.Name())})
		}
	case "math/rand", "math/rand/v2":
		if globalRand[fn.Name()] {
			pass.Report(analysis.Diagnostic{Pos: call.Pos(), Message: fmt.Sprintf(
				"%s.%s uses the global generator — thread a seeded *rand.Rand instead", fn.Pkg().Name(), fn.Name())})
		}
	}
}

func checkSelect(pass *analysis.Pass, sel *ast.SelectStmt) {
	ready := 0
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
			ready++
		}
	}
	if ready >= 2 {
		pass.Report(analysis.Diagnostic{Pos: sel.Pos(), Message: fmt.Sprintf(
			"select over %d channels chooses nondeterministically when several are ready", ready)})
	}
}
