// Command fast-roi evaluates the §5.1 return-on-investment model: ROI at
// a given deployment volume and the break-even volumes for a set of
// Perf/TCO improvements.
//
// With -from-search the Perf/TCO improvement is not given but derived:
// a FAST study searches a design for the named workload, the winner is
// re-simulated with the exact (sparse branch-and-bound) fusion-ILP
// solve under -ilp-deadline, and its Perf/TDP against the die-shrunk
// TPU-v3 baseline feeds the ROI model — the Table 4 protocol as a CLI.
//
// Usage:
//
//	fast-roi -speedup 3.9 -volume 5000
//	fast-roi -speedups 1.5,2,4,10,100
//	fast-roi -from-search efficientnet-b7 -trials 300 -volume 4000
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"fast"
)

func main() {
	var (
		speedup    = flag.Float64("speedup", 0, "single Perf/TCO improvement to evaluate")
		volume     = flag.Float64("volume", 4000, "deployment volume (accelerators)")
		speedups   = flag.String("speedups", "1.5,2,4,10,100", "comma-separated speedups for the break-even table")
		fromSearch = flag.String("from-search", "", "derive the speedup from a FAST search on this workload (see fast.ModelNames)")
		trials     = flag.Int("trials", 120, "with -from-search: search-trial budget")
		seed       = flag.Int64("seed", 1, "with -from-search: deterministic seed")
		parallel   = flag.Int("parallel", 0, "with -from-search: concurrent evaluations (0 = one per CPU)")
		ilpDeadln  = flag.Duration("ilp-deadline", 2*time.Second, "with -from-search: deadline per exact fusion-ILP solve in the winner re-simulation, which ends at the first of a proof, a certified 0.1% gap, 16384 nodes without improvement (scaled up in proportion to deadlines above 2s) or this deadline; on a stall or deadline stop the greedy-seeded incumbent (with its optimality gap) is used instead of failing")
	)
	flag.Parse()

	p := fast.DefaultROI()
	fmt.Printf("cost model: unit TCO $%.0f (capex $%.0f + %.1fkW × %g yr), NRE $%.1fM\n\n",
		p.UnitTCO(), p.AccelUnitCost, p.PowerKW, p.YearsDeployed, p.NRE()/1e6)

	if *fromSearch != "" {
		s, err := searchedSpeedup(*fromSearch, *trials, *seed, *parallel, *ilpDeadln)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fast-roi:", err)
			os.Exit(1)
		}
		*speedup = s
	}

	if *speedup > 0 {
		r := p.ROI(*speedup, *volume)
		fmt.Printf("Perf/TCO %.2fx at %.0f units: ROI = %.2f (%s)\n",
			*speedup, *volume, r, verdict(r))
		fmt.Printf("break-even volume: %.0f units\n", p.BreakEvenVolume(*speedup))
		return
	}

	fmt.Printf("%-10s %12s %12s %12s %12s\n", "Perf/TCO", "1x ROI", "2x ROI", "4x ROI", "8x ROI")
	for _, tok := range strings.Split(*speedups, ",") {
		s, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fast-roi: bad speedup %q\n", tok)
			os.Exit(2)
		}
		fmt.Printf("%-10.2f %12.0f %12.0f %12.0f %12.0f\n", s,
			p.VolumeForROI(s, 1), p.VolumeForROI(s, 2), p.VolumeForROI(s, 4), p.VolumeForROI(s, 8))
	}
}

func verdict(r float64) string {
	if r >= 1 {
		return "profitable"
	}
	return "below break-even"
}

// searchedSpeedup runs the Table 4 protocol for one workload: search a
// design, re-simulate the winner with the exact fusion ILP, and return
// its Perf/TDP improvement over the die-shrunk TPU-v3 baseline as the
// Perf/TCO proxy.
func searchedSpeedup(workload string, trials int, seed int64, parallel int, ilpDeadline time.Duration) (float64, error) {
	simOpts := fast.FASTOptions()
	simOpts.Fusion.Deadline = ilpDeadline
	fmt.Printf("searching %d trials on %s (winner re-simulated with the exact fusion ILP, %v deadline per solve)\n",
		trials, workload, ilpDeadline)
	res, err := (&fast.Study{
		Workloads:  []string{workload},
		Objective:  fast.ObjectivePerfPerTDP,
		Trials:     trials,
		Seed:       seed,
		SimOptions: &simOpts,
	}).Run(context.Background(), fast.WithParallelism(parallel))
	if err != nil {
		return 0, err
	}
	if res.Best == nil {
		return 0, fmt.Errorf("no feasible design found for %s in %d trials", workload, trials)
	}
	win := res.PerWorkload[0].Result

	tpu := fast.DieShrunkTPUv3()
	bg, err := fast.BuildModel(workload, tpu.NativeBatch)
	if err != nil {
		return 0, err
	}
	base, err := fast.Simulate(bg, tpu, fast.BaselineOptions())
	if err != nil {
		return 0, err
	}
	s := win.PerfPerTDP / base.PerfPerTDP
	fmt.Printf("winner %s: %.4f QPS/W vs baseline %.4f QPS/W → Perf/TCO proxy %.2fx (fusion %s)\n\n",
		res.Best.Name, win.PerfPerTDP, base.PerfPerTDP, s, win.Fusion.Method)
	return s, nil
}
