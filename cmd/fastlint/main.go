// fastlint is the multichecker for the engine's custom static
// analyzers (internal/analysis): detrange, nondetsource and poolescape
// — the compile-time checks behind the determinism invariants and the
// pooled-scratch discipline.
//
// It loads the module from source once and analyzes every matched
// package against it:
//
//	go run ./cmd/fastlint ./...
//	go run ./cmd/fastlint -analyzers detrange,poolescape ./internal/sim
//	go run ./cmd/fastlint -json ./...
//
// Exit status: 0 clean, 1 when diagnostics were reported, 2 on usage or
// loader errors. Suppressions use //fast:allow <analyzer> <reason>
// directives; see internal/analysis.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fast/internal/analysis"
	"fast/internal/analysis/detrange"
	"fast/internal/analysis/load"
	"fast/internal/analysis/nondetsource"
	"fast/internal/analysis/poolescape"
)

// all lists every analyzer in the suite.
var all = []*analysis.Analyzer{
	detrange.Analyzer,
	nondetsource.Analyzer,
	poolescape.Analyzer,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fastlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON, keyed by package then analyzer")
	dir := fs.String("C", ".", "directory to load packages from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers, err := selectAnalyzers(*names)
	if err != nil {
		fmt.Fprintln(stderr, "fastlint:", err)
		return 2
	}
	prog, err := load.Load(*dir, fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, "fastlint:", err)
		return 2
	}
	diags, err := analysis.Run(prog, prog.Pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "fastlint:", err)
		return 2
	}
	if len(diags) == 0 {
		return 0
	}
	printDiags(prog, diags, *jsonOut, stdout)
	return 1
}

func selectAnalyzers(names string) ([]*analysis.Analyzer, error) {
	if names == "" {
		return all, nil
	}
	var sel []*analysis.Analyzer
	for _, n := range strings.Split(names, ",") {
		found := false
		for _, a := range all {
			if a.Name == n {
				sel = append(sel, a)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
	}
	return sel, nil
}

// printDiags writes one line per diagnostic, or with jsonOut one JSON
// document in go vet's shape:
// {"<pkg>": {"<analyzer>": [{"posn": ..., "message": ...}]}}.
func printDiags(prog *load.Program, diags []analysis.Diagnostic, jsonOut bool, w io.Writer) {
	if !jsonOut {
		for _, d := range diags {
			fmt.Fprintf(w, "%s: [%s] %s\n", prog.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
		return
	}
	type jsonDiag struct {
		Posn    string `json:"posn"`
		Message string `json:"message"`
	}
	byPkg := map[string]map[string][]jsonDiag{}
	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		pkgPath := ""
		for _, p := range prog.Pkgs {
			for _, f := range p.Files {
				if prog.Fset.File(f.Pos()).Name() == pos.Filename {
					pkgPath = p.Path
				}
			}
		}
		if byPkg[pkgPath] == nil {
			byPkg[pkgPath] = map[string][]jsonDiag{}
		}
		byPkg[pkgPath][d.Analyzer] = append(byPkg[pkgPath][d.Analyzer],
			jsonDiag{Posn: pos.String(), Message: d.Message})
	}
	out, _ := json.Marshal(byPkg) // map keys marshal sorted: stable output
	fmt.Fprintln(w, string(out))
}
