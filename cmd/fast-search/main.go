// Command fast-search runs a FAST study: it searches the datapath ×
// schedule × fusion space for a design optimized for one or more
// workloads (Figure 1's outer loop) and prints the winning configuration
// with its per-workload evaluation.
//
// Candidate evaluations run concurrently (-parallel); Ctrl-C cancels the
// search gracefully and reports the best design found so far.
//
// With -objectives the study is multi-objective: it returns the whole
// Pareto front over the named targets (perf, perf-per-tdp as
// maximization; tdp, area as minimization) instead of a single best
// design, printed as a table or as JSON (-json) for plotting.
//
// Usage:
//
//	fast-search -workloads efficientnet-b7 -trials 500
//	fast-search -workloads efficientnet-b7,resnet50,bert-1024 -objective perf
//	fast-search -multi -algorithm bayesian -trials 1000 -seed 7 -parallel 8
//	fast-search -objectives perf,tdp,area -trials 500
//	fast-search -objectives perf-per-tdp,area -json > front.json
//
// Evaluation can be sharded across fast-worker processes: -workers N
// spawns N local subprocess workers, -connect host:port,... reaches
// workers started with `fast-worker -listen`. The trial transcript is
// bit-identical to the in-process run at any worker count; a chunk
// whose worker dies or misses its deadline is retried on another worker,
// and a fully lost pool degrades to in-process evaluation (the study
// still completes).
//
//	fast-search -workloads mobilenetv2 -workers 4
//	fast-search -connect 10.0.0.5:9000,10.0.0.6:9000 -trials 1000
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"time"

	"fast"
	"fast/internal/core"
	"fast/internal/dispatch"
)

func main() {
	var (
		workloads  = flag.String("workloads", "efficientnet-b0", "comma-separated workload names")
		multi      = flag.Bool("multi", false, "use the paper's 5-workload multi-workload suite")
		objective  = flag.String("objective", "perf-per-tdp", "objective: perf-per-tdp or perf")
		objectives = flag.String("objectives", "", "comma-separated objectives (perf, perf-per-tdp, tdp, area) for a multi-objective Pareto study")
		jsonOut    = flag.Bool("json", false, "with -objectives, print the front as JSON for plotting")
		frontCap   = flag.Int("front", 0, "with -objectives, cap the returned front size (0 = default 32)")
		algorithm  = flag.String("algorithm", "", "optimizer: random, lcs, bayesian, nsga2 (default lcs; nsga2 with -objectives)")
		trials     = flag.Int("trials", 300, "trial budget (paper: 5000)")
		seed       = flag.Int64("seed", 1, "deterministic seed")
		parallel   = flag.Int("parallel", 0, "concurrent evaluations (0 = one per CPU)")
		progress   = flag.Int("progress", 0, "print the running best every N trials (0 = off)")
		latency    = flag.Float64("latency-ms", 0, "optional per-batch latency bound in ms (e.g. 15 for MLPerf)")
		save       = flag.String("save", "", "write the best design to this JSON file")
		workers    = flag.Int("workers", 0, "spawn N fast-worker subprocesses for trial evaluation (0 = in-process)")
		connect    = flag.String("connect", "", "comma-separated fast-worker TCP addresses (host:port,...)")
		workerBin  = flag.String("worker-bin", "", "fast-worker binary for -workers (default: next to this binary, then PATH)")
	)
	flag.Parse()

	ws := strings.Split(*workloads, ",")
	if *multi {
		ws = fast.MultiWorkloadSuite()
	}
	obj, err := fast.ParseObjective(*objective)
	var objs []fast.ObjectiveKind
	if err == nil && *objectives != "" {
		objs, err = core.ParseObjectives(strings.Split(*objectives, ","))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fast-search:", err)
		os.Exit(2)
	}

	st, err := fast.Study{
		Workloads:       ws,
		Objective:       obj,
		Objectives:      objs,
		FrontCap:        *frontCap,
		Algorithm:       fast.Algorithm(*algorithm),
		Trials:          *trials,
		Seed:            *seed,
		LatencyBoundSec: *latency / 1e3,
	}.Resolved()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fast-search:", err)
		os.Exit(2)
	}
	objName := *objective
	if objs != nil {
		objName = *objectives
	}
	// With -json, stdout carries only the JSON document (the doc
	// comment promises `-json > front.json` parses); status goes to
	// stderr like the -progress lines.
	status := os.Stdout
	if *jsonOut {
		status = os.Stderr
	}
	fmt.Fprintf(status, "searching %d trials (%s, %s) over %s\n", *trials, st.Algorithm, objName, strings.Join(ws, ", "))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Remote evaluation: spawn or connect the worker pool before the
	// study starts. With a pool and no explicit -parallel, drive one
	// chunk per worker so every worker stays busy.
	var pool *dispatch.Pool
	if *workers > 0 || *connect != "" {
		popts := dispatch.Options{
			Workers: *workers,
			Logf: func(f string, a ...any) {
				fmt.Fprintf(os.Stderr, "dispatch: "+f+"\n", a...)
			},
		}
		if *connect != "" {
			popts.Connect = strings.Split(*connect, ",")
		} else {
			bin, err := dispatch.ResolveWorkerBin(*workerBin)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fast-search:", err)
				os.Exit(2)
			}
			popts.WorkerCmd = []string{bin}
		}
		var err error
		pool, err = dispatch.New(popts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fast-search:", err)
			os.Exit(2)
		}
		defer pool.Close()
		if *parallel == 0 {
			*parallel = pool.Size()
		}
	}

	opts := []fast.Option{fast.WithParallelism(*parallel)}
	if pool != nil {
		opts = append(opts, fast.WithDispatch(pool.Dispatch()))
	}
	if *progress > 0 {
		// Trial.Value is maximize-oriented: track the running max and
		// show it in the first objective's natural units.
		n, best := 0, math.Inf(-1)
		opts = append(opts, fast.WithTranscript(func(batch []fast.Trial) {
			for _, t := range batch {
				n++
				if t.Feasible && t.Value > best {
					best = t.Value
				}
				if n%*progress != 0 {
					continue
				}
				if math.IsInf(best, -1) {
					fmt.Fprintf(os.Stderr, "  trial %d/%d  best -\n", n, *trials)
				} else {
					fmt.Fprintf(os.Stderr, "  trial %d/%d  best %.4g\n", n, *trials, st.Primary().Raw(best))
				}
			}
		}))
	}

	t0 := time.Now()
	res, err := st.Run(ctx, opts...)
	// Restore default SIGINT handling right away: a second Ctrl-C during
	// the post-cancel reporting tail should kill the process, not be
	// swallowed by the (now useless) cancel handler.
	stop()
	canceled := errors.Is(err, context.Canceled)
	if err != nil && !canceled {
		fmt.Fprintln(os.Stderr, "fast-search:", err)
		os.Exit(1)
	}
	elapsed := time.Since(t0).Seconds()
	done := len(res.Search.History)
	fmt.Fprintf(status, "done in %.1fs (%.1f trials/s); %d/%d trials feasible\n\n",
		elapsed, float64(done)/elapsed,
		int(res.Search.FeasibleRate()*float64(done)), done)
	if pool != nil {
		// hedges=0 is literal (the pool never hedges): scripts parse
		// this line's fixed shape.
		ds := pool.Stats()
		fmt.Fprintf(status, "dispatch: %d/%d workers live, %d points in %d chunks remote; retries=%d hedges=0 respawns=%d degraded=%d\n\n",
			ds.LiveWorkers, ds.Workers, ds.RemotePoints, ds.RemoteChunks,
			ds.Retries, ds.Respawns, ds.DegradedChunks)
	}
	if objs != nil {
		reportFront(objs, res, canceled, *jsonOut, *save)
		if canceled {
			os.Exit(130)
		}
		return
	}
	if res.Best == nil {
		if canceled {
			fmt.Printf("interrupted after %d/%d trials, before any feasible design was found\n", done, *trials)
			os.Exit(130)
		}
		fmt.Println("no feasible design found — raise -trials")
		os.Exit(1)
	}
	if canceled {
		fmt.Printf("interrupted after %d/%d trials — reporting the best design so far\n\n", done, *trials)
	}

	fmt.Printf("best design (objective %.4g):\n  %s\n\n", res.BestValue, res.Best)
	if *save != "" {
		if err := res.Best.SaveFile(*save); err != nil {
			fmt.Fprintln(os.Stderr, "fast-search:", err)
			os.Exit(1)
		}
		fmt.Printf("saved to %s (run it back with: fast-sim -design-file %s)\n\n", *save, *save)
	}
	perWorkload := res.PerWorkload
	if canceled {
		// The canceled run skips the final re-simulation; do it here with
		// the same full ILP fusion solve a completed run uses, so an
		// interrupted report is comparable to a finished one.
		simOpts := fast.FASTOptions()
		simOpts.Fusion.GreedyOnly = false
		wr, err := fast.EvaluateDesign(res.Best, ws, simOpts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fast-search:", err)
			os.Exit(1)
		}
		perWorkload = wr
	}
	base, err := fast.EvaluateDesign(fast.DieShrunkTPUv3(), ws, fast.BaselineOptions())
	if err != nil {
		fmt.Fprintln(os.Stderr, "fast-search:", err)
		os.Exit(1)
	}
	fmt.Printf("%-18s %10s %10s %8s %10s %9s\n", "workload", "QPS", "latency", "util", "Perf/TDP", "vs TPU-v3")
	for i, wr := range perWorkload {
		r := wr.Result
		fmt.Printf("%-18s %10.1f %8.2fms %8.3f %10.4f %8.2fx\n",
			wr.Name, r.QPS, r.LatencySec*1e3, r.Utilization, r.PerfPerTDP,
			r.PerfPerTDP/base[i].Result.PerfPerTDP)
	}
	if canceled {
		// The report above is complete, but the search was cut short —
		// exit 130 so scripts can tell an interrupted run from a full one.
		os.Exit(130)
	}
}

// objectiveUnit labels an objective's natural units for the front table.
func objectiveUnit(o fast.ObjectiveKind) string {
	switch o {
	case fast.ObjectivePerf:
		return "QPS"
	case fast.ObjectiveTDP:
		return "W"
	case fast.ObjectiveArea:
		return "mm²"
	}
	return "QPS/W"
}

// reportFront prints a multi-objective study's Pareto front as a table
// or, with -json, as a machine-readable document for plotting.
func reportFront(objs []fast.ObjectiveKind, res *fast.StudyResult, canceled, jsonOut bool, save string) {
	front := res.Front()
	status := os.Stdout
	if jsonOut {
		status = os.Stderr
	}
	if len(front) == 0 {
		if canceled {
			fmt.Fprintln(status, "interrupted before any feasible design was found")
			os.Exit(130)
		}
		fmt.Fprintln(status, "no feasible design found — raise -trials")
		os.Exit(1)
	}
	if canceled {
		fmt.Fprintln(status, "interrupted — reporting the front found so far (no final re-simulation)")
	}
	if jsonOut {
		type point struct {
			Values map[string]float64 `json:"values"`
			Design *fast.Design       `json:"design"`
		}
		doc := struct {
			Objectives []string `json:"objectives"`
			Front      []point  `json:"front"`
		}{}
		for _, o := range objs {
			doc.Objectives = append(doc.Objectives, o.String())
		}
		for _, p := range front {
			vals := map[string]float64{}
			for k, o := range objs {
				vals[o.String()] = p.Values[k]
			}
			doc.Front = append(doc.Front, point{Values: vals, Design: p.Design})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(os.Stderr, "fast-search:", err)
			os.Exit(1)
		}
	} else {
		fmt.Printf("pareto front (%d points):\n", len(front))
		fmt.Printf("%4s", "#")
		for _, o := range objs {
			fmt.Printf(" %16s", fmt.Sprintf("%s (%s)", o, objectiveUnit(o)))
		}
		fmt.Println("  design")
		for i, p := range front {
			fmt.Printf("%4d", i)
			for _, v := range p.Values {
				fmt.Printf(" %16.5g", v)
			}
			d := p.Design
			fmt.Printf("  %dx%d PEs × SA %dx%d, GM %d MiB, batch %d\n",
				d.PEsX, d.PEsY, d.SAx, d.SAy, d.GlobalMiB, d.NativeBatch)
		}
	}
	if save != "" {
		if err := res.Best.SaveFile(save); err != nil {
			fmt.Fprintln(os.Stderr, "fast-search:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "saved the best %s design to %s\n", objs[0], save)
	}
}
