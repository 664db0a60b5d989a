// Command fast-bench is the repository's one measurement harness: cold
// time-to-result of the real binaries, by phase and by layer, over seven
// named workloads. See README.md in this directory for every metric,
// why each workload exists and the measured spread.
//
// End-to-end numbers come from running fast-search, fast-sim,
// fast-experiments, fast-serve and fast-worker as a user does — fresh
// processes, the documented CLI/HTTP surface, phase boundaries read off
// their own progress lines. Per-layer numbers come from a separate
// traced in-process run (inproc.go).
//
// Usage:
//
//	fast-bench                                  every workload, end to end and traced
//	fast-bench -workload single_5000 -trace 0   one workload, end-to-end metrics
//	fast-bench -workload single_5000 -trace 1   one workload, per-layer metrics
//	fast-bench -sets 5 -out a.json              five sets, for -check
//	fast-bench -check a.json b.json             compare two result files against BENCHMARK.json's bounds
//	fast-bench -update-golden                   regenerate testdata/golden.json
//
// With -workload the last line of stdout is the one-object JSON result
// the BENCHMARK.json contract specifies.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
)

const goldenFile = "cmd/fast-bench/testdata/golden.json"

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        int
	quick        bool
	sets         int
	out          string
	traceOut     string
	updateGolden bool
}

func main() {
	var o options
	var checkMode bool
	var inproc string
	flag.StringVar(&o.workload, "workload", "", "run one workload and end with the contract's JSON line (default: all seven, end to end and traced)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the order of the ops within a pass")
	flag.Float64Var(&o.seconds, "seconds", 12, "time budget of one run's timed passes (never fewer than five passes)")
	flag.IntVar(&o.trace, "trace", -1, "0 = no traced run; 1 = traced run, and with -workload the JSON line carries the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&o.quick, "quick", false, "smoke: two passes of one op per workload, traced only with -trace 1; a deadline-pinned op is held to itself, not to the golden")
	flag.IntVar(&o.sets, "sets", 1, "repeat the whole run this many times, at seeds -seed, -seed+1, ... as the driver does (input for -check)")
	flag.StringVar(&o.out, "out", "", "write the results as JSON to this file")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced runs' spans as Chrome trace-event JSON to this file")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "run every op and rewrite "+goldenFile)
	flag.BoolVar(&checkMode, "check", false, "compare two result files (base candidate) against BENCHMARK.json's bounds; exit 1 on a breach")
	flag.StringVar(&inproc, "inproc", "", "internal: run this traced-run request (JSON) in-process and print its result")
	flag.Parse()

	if inproc != "" {
		if err := inprocMain(inproc); err != nil {
			fatal(err)
		}
		return
	}
	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	if checkMode {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-check needs two result files: base candidate"))
		}
		os.Exit(runCheck(root, flag.Arg(0), flag.Arg(1)))
	}
	// An interrupt ends the run the way a failure does: every child's
	// process group is killed and the run directory removed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := run(ctx, root, o, os.Stdout)
	if err != nil {
		fatal(err)
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fast-bench:", err)
	os.Exit(1)
}

// moduleRoot finds the checkout: the nearest directory at or above the
// working directory that holds this module's go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if raw, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(raw), "module fast\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module fast at or above the working directory")
		}
		dir = parent
	}
}

func runCheck(root, basePath, candPath string) int {
	bench, err := readBenchmarkFile(root)
	if err != nil {
		fatal(err)
	}
	base, err := readResultFile(basePath)
	if err != nil {
		fatal(err)
	}
	cand, err := readResultFile(candPath)
	if err != nil {
		fatal(err)
	}
	if check(os.Stdout, bench, base, cand) {
		return 1
	}
	return 0
}

// run is the harness proper; it returns the process exit code.
func run(ctx context.Context, root string, o options, stdout io.Writer) (int, error) {
	e := &env{root: root, binDir: filepath.Join(root, ".bench_build", "bin")}
	e.runDir = filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(e.runDir, 0o755); err != nil {
		return 1, err
	}
	defer os.RemoveAll(e.runDir)
	if raw, err := os.ReadFile(filepath.Join(root, goldenFile)); err == nil && !o.updateGolden {
		if err := json.Unmarshal(raw, &e.golden); err != nil {
			return 1, fmt.Errorf("%s: %w", goldenFile, err)
		}
	}

	selected := workloads
	if o.workload != "" {
		w := workloadByName(o.workload)
		if w == nil {
			return 1, fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{*w}
	}
	if o.updateGolden {
		return updateGolden(ctx, e, stdout)
	}

	cfg := runConfig{seed: o.seed, seconds: o.seconds, quick: o.quick, minPasses: 5}
	// The contract's -trace 1 asks for the per-layer metrics; with no
	// -workload the harness reports both kinds, so it traces too unless
	// told not to (-trace 0).
	cfg.trace = o.trace == 1 || (o.trace < 0 && o.workload == "" && !o.quick)
	switch {
	case o.quick:
		cfg.minPasses, cfg.seconds = 2, 0
		// Which incumbent a pinned solve holds at its wall-clock deadline
		// can depend on the host, and the smoke runs on any: there the
		// two passes of such an op must agree with each other only.
		for i := range workloads {
			for _, op := range workloads[i].ops() {
				if op.Pinned {
					delete(e.golden, op.Key)
				}
			}
		}
	case o.trace == 1:
		// The contract's per-layer run: the traced children share the
		// time budget, so fewer timed passes fit.
		cfg.minPasses = 2
	}

	loc, exported, err := repoSize(root)
	if err != nil {
		return 1, err
	}
	file := resultFile{
		Schema: "fast-bench/1",
		Host: map[string]any{
			"cpus": runtime.NumCPU(), "parallel": parallel, "go": runtime.Version(),
			"data_fs": fsName(e.runDir), "seconds": cfg.seconds,
		},
	}
	traces := map[string][]span{}
	failed := 0
	for set := 0; set < o.sets; set++ {
		var runs []runResult
		cfg.seed = o.seed + int64(set)
		for i := range selected {
			w := &selected[i]
			res, err := runWorkload(ctx, e, w, cfg)
			if err != nil {
				return 1, fmt.Errorf("%s: %w", w.Name, err)
			}
			res.Metrics.set("repo.nontest_loc", float64(loc))
			res.Metrics.set("repo.exported_symbols", float64(exported))
			printRun(stdout, res)
			failed += res.Failed
			if res.spans != nil {
				traces[w.Name] = res.spans
			}
			runs = append(runs, res)
		}
		file.Sets = append(file.Sets, runs)
	}
	if o.out != "" {
		raw, _ := json.MarshalIndent(file, "", " ")
		if err := os.WriteFile(o.out, append(raw, '\n'), 0o644); err != nil {
			return 1, err
		}
	}
	if o.traceOut != "" {
		raw, err := chromeTrace(traces)
		if err != nil {
			return 1, err
		}
		if err := os.WriteFile(o.traceOut, raw, 0o644); err != nil {
			return 1, err
		}
	}
	if o.workload != "" {
		last := file.Sets[len(file.Sets)-1][0]
		fmt.Fprintln(stdout, contractLine(last, o.trace == 1))
	}
	if failed > 0 && o.workload == "" {
		return 1, nil
	}
	return 0, nil
}

// printRun lists every metric of one run by name, with unit and
// direction; "-" marks one that does not exist on this workload.
func printRun(w io.Writer, r runResult) {
	fmt.Fprintf(w, "\n== %s  seed %d  %d passes  %d ops  %d failed ==\n", r.Workload, r.Seed, r.Passes, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	for _, d := range catalogue {
		v := "-"
		if m := r.Metrics[d.Name]; m.Value != nil {
			v = fmt.Sprintf("%.6g", *m.Value)
		}
		kind := "layer"
		if d.E2E {
			kind = "e2e"
		}
		fmt.Fprintf(w, "  %-5s %-32s %14s %-5s (%s is better)\n", kind, d.Name, v, d.Unit, d.Better)
	}
	keys := make([]string, 0, len(r.Digests))
	for k := range r.Digests {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  digest %s  %s\n", r.Digests[k], k)
	}
}

// contractLine renders one run as BENCHMARK.json's result object: the
// end-to-end metrics, or with perLayer every per-layer metric. The
// contract wants a number for each, so a per-layer metric that does not
// exist on the workload reads 0 here (and "-" / null everywhere else).
func contractLine(r runResult, perLayer bool) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]val{}
	for _, d := range catalogue {
		if d.E2E == perLayer {
			continue
		}
		v := val{Unit: d.Unit}
		if m := r.Metrics[d.Name]; m.Value != nil {
			v.Value = *m.Value
		}
		metrics[d.Name] = v
	}
	raw, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	return string(raw)
}

// updateGolden records the digest of every op.
// Study seeds are fixed, so one golden covers every -seed. Two passes:
// an op whose output differs between passes has no golden to record.
func updateGolden(ctx context.Context, e *env, stdout io.Writer) (int, error) {
	golden := map[string]string{}
	for i := range workloads {
		w := &workloads[i]
		res, err := runWorkload(ctx, e, w, runConfig{seed: 1, minPasses: 2})
		if err != nil {
			return 1, err
		}
		printRun(stdout, res)
		if res.Failed > 0 {
			return 1, fmt.Errorf("%s: %d ops failed; golden not written", w.Name, res.Failed)
		}
		for k, v := range res.Digests {
			golden[k] = v
		}
	}
	raw, _ := json.MarshalIndent(golden, "", " ")
	return 0, os.WriteFile(filepath.Join(e.root, goldenFile), append(raw, '\n'), 0o644)
}
