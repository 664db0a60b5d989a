// Multi-objective (Pareto-front) search: instead of collapsing the
// design question to one scalar, search perf, TDP, and area at once and
// get the whole trade-off frontier from a single study — the curves the
// paper's budget-constrained comparisons and ROI analysis are built on
// (Figure 12, §5.1). One NSGA-II study replaces N independent scalar
// studies that could not share dominance information, and every
// objective of a trial is scored from the same simulation, so the extra
// objectives are free.
//
//	go run ./examples/pareto [-trials 300]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"fast"
)

func main() {
	trials := flag.Int("trials", 300, "search trial budget")
	parallel := flag.Int("parallel", 0, "concurrent evaluations (0 = one per CPU)")
	flag.Parse()

	// Three objectives: maximize raw throughput, minimize TDP, minimize
	// die area. The budget (Eq. 4) still applies — infeasible designs
	// rank behind every feasible one and never reach the front.
	st := &fast.Study{
		Workloads:  []string{"efficientnet-b0"},
		Objectives: []fast.ObjectiveKind{fast.ObjectivePerf, fast.ObjectiveTDP, fast.ObjectiveArea},
		Trials:     *trials,
		Seed:       7,
		FrontCap:   10,
	}
	fmt.Printf("searching the perf × TDP × area frontier on %s (%d trials, nsga2)\n\n",
		st.Workloads[0], *trials)
	res, err := st.Run(context.Background(), fast.WithParallelism(*parallel))
	if err != nil {
		log.Fatal(err)
	}
	front := res.Front()
	if len(front) == 0 {
		log.Fatal("no feasible design; raise -trials")
	}

	// Each point is one defensible answer to "which accelerator should
	// we build": pick by whatever envelope the deployment imposes.
	fmt.Printf("%4s %12s %10s %12s %12s\n", "#", "perf (QPS)", "TDP (W)", "area (mm²)", "Perf/TDP")
	for i, p := range front {
		r := p.PerWorkload[0].Result
		fmt.Printf("%4d %12.0f %10.1f %12.1f %12.4f\n", i, p.Values[0], p.Values[1], p.Values[2], r.PerfPerTDP)
	}

	// The extremes of the front are the classic design points: the
	// datacenter-class design (fastest) and the embedded-class one
	// (smallest). A scalar study would have returned only one of them.
	big, small := front[0], front[len(front)-1]
	fmt.Printf("\ndatacenter-class end: %s\n", big.Design)
	fmt.Printf("embedded-class end:   %s\n", small.Design)
	fmt.Printf("\nthe frontier spans %.0fx in throughput and %.1fx in area from one study;\n",
		big.Values[0]/small.Values[0], big.Values[2]/small.Values[2])
	fmt.Printf("every point lies inside the default area/TDP envelope (fast.DefaultBudget).\n")
}
