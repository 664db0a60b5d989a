// Command fast-sim simulates a workload on a named or ad-hoc accelerator
// design and prints the full report: throughput, latency, utilization,
// operational intensity, memory stalls, fusion placements, power/area,
// and per-op-class / per-block breakdowns.
//
// Usage:
//
//	fast-sim -model efficientnet-b7 -design fast-large
//	fast-sim -model bert-1024 -design tpu-v3 -stack baseline
//	fast-sim -model resnet50 -design fast-small -batch 32 -blocks
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"fast"
	"fast/internal/fusion"
	"fast/internal/sim"
)

func main() {
	var (
		model      = flag.String("model", "efficientnet-b0", "workload name: "+strings.Join(fast.ModelNames(), ", "))
		design     = flag.String("design", "fast-large", "design name: tpu-v3, tpu-v3-dieshrink, fast-large, fast-small, fast-decode")
		designFile = flag.String("design-file", "", "load the design from a JSON file (overrides -design)")
		stack      = flag.String("stack", "fast", "software stack: fast (all schedules + fusion) or baseline (production TPU stack)")
		batch      = flag.Int64("batch", 0, "override the design's native batch size (power of 2)")
		twoPass    = flag.Bool("two-pass-softmax", false, "force the two-pass softmax (default: auto with -stack fast)")
		ilpNodes   = flag.Int("ilp-nodes", fusion.DefaultMaxNodes, "branch-and-bound node budget per exact fusion-ILP solve, which ends at the first of a proof, a certified 0.1% gap, the stall limit (16384 nodes without improvement, a quarter of larger budgets) or this many nodes; an unproven solve reports its incumbent with its optimality gap")
		greedyFus  = flag.Bool("greedy-fusion", false, "skip the exact ILP and report the greedy fusion solve (the search-loop stack)")
		blocks     = flag.Bool("blocks", false, "print the per-block utilization table")
		dot        = flag.String("dot", "", "write the workload graph (clustered by fusion region) to this DOT file")
		classes    = flag.Bool("classes", true, "print the per-op-class runtime breakdown")
	)
	flag.Parse()

	var cfg *fast.Design
	if *designFile != "" {
		var err error
		cfg, err = fast.LoadDesign(*designFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fast-sim:", err)
			os.Exit(2)
		}
	} else if cfg = fast.DesignByName(*design); cfg == nil {
		fmt.Fprintf(os.Stderr, "fast-sim: unknown design %q\n", *design)
		os.Exit(2)
	}
	if *batch > 0 {
		cfg = cfg.Clone(cfg.Name + "-custom-batch")
		cfg.NativeBatch = *batch
	}
	var opts fast.SimOptions
	switch *stack {
	case "fast":
		opts = fast.FASTOptions()
		// The single-design report is a final-metrics path: run the exact
		// branch-and-bound fusion solve (greedy only on request).
		opts.Fusion.GreedyOnly = *greedyFus
		opts.Fusion.MaxNodes = *ilpNodes
	case "baseline":
		opts = fast.BaselineOptions()
	default:
		fmt.Fprintf(os.Stderr, "fast-sim: unknown stack %q\n", *stack)
		os.Exit(2)
	}
	if *twoPass {
		opts.AutoSoftmax = false
		opts.TwoPassSoftmax = true
	}

	g, err := fast.BuildModel(*model, cfg.NativeBatch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fast-sim:", err)
		os.Exit(2)
	}
	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fast-sim:", err)
			os.Exit(1)
		}
		if err := fast.WriteGraphDOT(f, g); err != nil {
			fmt.Fprintln(os.Stderr, "fast-sim:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "fast-sim:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *dot)
	}
	r, err := fast.Simulate(g, cfg, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fast-sim:", err)
		os.Exit(1)
	}
	if r.ScheduleFailed {
		fmt.Fprintf(os.Stderr, "fast-sim: schedule failure (Eq. 5): %s\n", r.FailReason)
		os.Exit(1)
	}

	budget := fast.DefaultBudget()
	fmt.Printf("%s\n\n", cfg)
	fmt.Printf("workload            %s (batch %d, %d ops)\n", g.Name, g.NativeBatch(), len(g.Ops))
	fmt.Printf("throughput          %.1f QPS\n", r.QPS)
	fmt.Printf("batch latency       %.3f ms\n", r.LatencySec*1e3)
	fmt.Printf("compute utilization %.3f of peak\n", r.Utilization)
	fmt.Printf("op intensity        %.1f -> %.1f FLOPs/B (pre -> post fusion; ridgepoint %.1f)\n",
		r.OpIntensityPre, r.OpIntensityPost, cfg.Ridgepoint())
	method := r.Fusion.Method
	switch method {
	case "ilp-optimal":
		method = fmt.Sprintf("%s, %d nodes", method, r.Fusion.Nodes)
	case "ilp-within-tol", "ilp-incumbent":
		// Stopped unproven (on the gap tolerance, the stall limit or the
		// node budget): the greedy-seeded incumbent with its proven bound.
		gap := "gap unbounded"
		if !math.IsInf(r.Fusion.Gap, 1) {
			gap = "gap " + percent(r.Fusion.Gap) + "%"
		}
		method = fmt.Sprintf("%s, %s, %d nodes", method, gap, r.Fusion.Nodes)
	}
	fmt.Printf("memory stall        %.1f%% -> %.1f%% (fusion efficiency %.1f%%, method %s)\n",
		r.MemStallPre*100, r.MemStallPost*100, r.FusionEfficiency*100, method)
	fmt.Printf("GM residency peak   %.1f MiB of %d MiB\n", float64(r.Fusion.GMUsedPeak)/(1<<20), cfg.GlobalMiB)
	var kvTotal, kvHeld int64
	var kvRegions int
	for ri := range r.Regions {
		kvTotal += r.Regions[ri].KVBytes
		if r.Fusion.KVOnChip[ri] {
			kvRegions++
			kvHeld += r.Regions[ri].KVBytes
		}
	}
	if kvTotal > 0 {
		fmt.Printf("KV-cache residency  %.1f of %.1f MiB held on chip (%d regions)\n",
			float64(kvHeld)/(1<<20), float64(kvTotal)/(1<<20), kvRegions)
	}
	fmt.Printf("softmax algorithm   %s\n", r.SoftmaxAlgorithm)
	pm := fast.DefaultPowerModel()
	ec := fast.DefaultEnergyCoeffs()
	fmt.Printf("energy              %.2f mJ/inference (avg power %.1f W)\n",
		r.EnergyPerInference(pm, ec)*1e3, r.AveragePowerW(pm, ec))
	fmt.Printf("TDP                 %.1f W (%.2f of budget)\n", r.TDPWatts, r.TDPWatts/budget.MaxTDPW)
	fmt.Printf("area                %.1f mm² (%.2f of budget)\n", r.AreaMM2, r.AreaMM2/budget.MaxAreaMM2)
	fmt.Printf("Perf/TDP            %.3f QPS/W\n", r.PerfPerTDP)

	if *classes {
		fmt.Printf("\nper-class runtime (profiler attribution):\n")
		classify := sim.ClassifyCNN
		// GPT builders reuse BERT's component naming, so the transformer
		// classifier attributes both.
		if strings.HasPrefix(*model, "bert") || strings.HasPrefix(*model, "gpt2-") {
			classify = sim.ClassifyBERT
		}
		for _, row := range r.ByClassRegion(classify) {
			fmt.Printf("  %-24s %6.2f%% runtime  %6.2f%% FLOPs\n",
				row.Class, row.RuntimeShare*100, row.FLOPShare*100)
		}
	}
	if *blocks {
		fmt.Printf("\nper-block utilization:\n")
		for _, b := range r.ByBlock() {
			fmt.Printf("  %-24s %.3f of peak  %8.3f ms\n", b.Block, b.Utilization, b.Sec*1e3)
		}
	}
}

// percent renders a ratio as a percentage in fixed notation with at
// least one decimal and at least one significant digit, so a nonzero
// gap never prints as 0.0%.
func percent(ratio float64) string {
	pct := ratio * 100
	decimals := 1
	if pct > 0 {
		decimals = max(decimals, int(math.Ceil(-math.Log10(pct))))
	}
	return strconv.FormatFloat(pct, 'f', decimals, 64)
}
