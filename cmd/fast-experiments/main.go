// Command fast-experiments regenerates the paper's tables and figures
// (-exp takes one id of experiments.IDs, or all of them in order).
//
// Usage:
//
//	fast-experiments -exp table5
//	fast-experiments -exp all -trials 300 > results.txt
//	fast-experiments -exp fig10 -markdown
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fast/internal/experiments"
	"fast/internal/fusion"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id or 'all': "+strings.Join(experiments.IDs(), ", "))
		trials   = flag.Int("trials", 120, "search-trial budget for fig9/fig10/fig12/frontier/table4")
		convergo = flag.Int("convergence-trials", 150, "per-curve trials for fig11")
		repeats  = flag.Int("repeats", 3, "repeats per heuristic for fig11 (paper: 5)")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		parallel = flag.Int("parallel", 0, "concurrent evaluations per search and reporting simulations per table (0 = one per CPU); search results and table cells are identical at any setting")
		ilpNodes = flag.Int("ilp-nodes", fusion.DefaultMaxNodes, "branch-and-bound node budget per exact fusion-ILP solve on the reporting paths, which ends at the first of a proof, a certified 0.1% gap, the stall limit (16384 nodes without improvement, a quarter of larger budgets) or this many nodes; a stall or budget stop reports the greedy-seeded incumbent with its optimality gap")
		markdown = flag.Bool("markdown", false, "emit GitHub markdown")
		csv      = flag.Bool("csv", false, "emit CSV (for plotting)")
	)
	flag.Parse()

	reg := experiments.Registry(experiments.Options{
		SearchTrials:      *trials,
		ConvergenceTrials: *convergo,
		Repeats:           *repeats,
		Seed:              *seed,
		Parallelism:       *parallel,
		ILPNodes:          *ilpNodes,
	})

	ids := experiments.IDs()
	if *exp != "all" {
		if _, ok := reg[*exp]; !ok {
			fmt.Fprintf(os.Stderr, "fast-experiments: unknown experiment %q (known: %s)\n",
				*exp, strings.Join(experiments.IDs(), ", "))
			os.Exit(2)
		}
		ids = []string{*exp}
	}
	for _, id := range ids {
		t0 := time.Now()
		tab := reg[id]()
		switch {
		case *csv:
			fmt.Printf("# %s: %s\n%s\n", tab.ID, tab.Title, tab.CSV())
		case *markdown:
			fmt.Println(tab.Markdown())
		default:
			fmt.Println(tab.String())
		}
		fmt.Fprintf(os.Stderr, "[%s done in %.1fs]\n", id, time.Since(t0).Seconds())
	}
}
