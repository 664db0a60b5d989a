package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

var binaries = []string{"fast-search", "fast-sim", "fast-experiments", "fast-serve", "fast-worker"}

// env is where one harness process works: the checkout, the build
// directory inside it, and a private run directory removed at exit.
type env struct {
	root   string // module root (holds go.mod and BENCHMARK.json)
	binDir string // <root>/.bench_build/bin
	runDir string // <root>/.bench_build/run-<pid>
	golden map[string]string
}

// runConfig is how one workload run is sized.
type runConfig struct {
	seed      int64
	seconds   float64
	quick     bool
	trace     bool
	minPasses int
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Passes    int               `json:"passes"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   metricSet         `json:"metrics"`
	Digests   map[string]string `json:"digests"`
	// PassWalls is every timed pass's wall time, in order: what pass_s is
	// the median of, kept so a result file shows the run's own scatter.
	PassWalls []float64 `json:"pass_wall_s"`
	spans     []span
}

// setupReps is how often a run sets up. BENCHMARK.json's contract asks
// for several set-ups a run and their median; the one-off compile of a
// fresh checkout then does not set setup_s.
const setupReps = 3

// build compiles the five binaries into binDir. `go build` is a no-op
// when they are current, which is the state every run but the first in
// a checkout finds.
func (e *env) build(ctx context.Context) error {
	args := []string{"build", "-o", e.binDir + string(filepath.Separator)}
	for _, b := range binaries {
		args = append(args, "./cmd/"+b)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	return nil
}

// setup is what setup_s times: build, one untimed exec of each binary
// (page cache only — compile and cold caches are paid inside the
// timing, as a CLI user pays them on every run), and for serve_fsync
// the daemon start.
func (e *env) setup(ctx context.Context, w *workload) (*daemon, error) {
	if err := e.build(ctx); err != nil {
		return nil, err
	}
	for _, b := range binaries {
		// -h exits 0 after printing the flag list.
		if out, err := exec.CommandContext(ctx, filepath.Join(e.binDir, b), "-h").CombinedOutput(); err != nil {
			return nil, fmt.Errorf("warm exec %s: %v\n%s", b, err, out)
		}
	}
	if w.ops()[0].Study == nil {
		return nil, nil
	}
	return startDaemon(e.binDir, e.runDir)
}

// runPass executes every op once. The loop is closed: each of the
// workload's clients runs its share of the ops one after another, the
// next only when the previous has its result.
func runPass(ctx context.Context, e *env, w *workload, d *daemon, ops []op, passID string) []opResult {
	out := make([]opResult, len(ops))
	var wg sync.WaitGroup
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(ops); i += w.Clients {
				if ops[i].Study != nil {
					out[i] = d.runStudy(ctx, ops[i], fmt.Sprintf("%s-%d", passID, i))
				} else {
					out[i] = runCLI(ctx, ops[i], e.binDir, e.root)
				}
			}
		}()
	}
	wg.Wait()
	return out
}

type passResult struct {
	wall, cpu float64
	// rss is the largest peak resident set among the pass's processes
	// (serve_fsync: the daemon's peak so far when the pass ends), MiB.
	rss float64
	ops []opResult
}

// runWorkload sets up, runs timed passes of the workload's op list
// until the time budget is used (never fewer than cfg.minPasses), and
// reduces what it saw to the catalogue's metrics.
func runWorkload(ctx context.Context, e *env, w *workload, cfg runConfig) (runResult, error) {
	res := runResult{Workload: w.Name, Seed: cfg.seed, Metrics: metricSet{}, Digests: map[string]string{}}
	m := res.Metrics

	var d *daemon
	var setups []float64
	reps := setupReps
	if cfg.quick {
		reps = 1
	}
	for range reps {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		if d, err = e.setup(ctx, w); err != nil {
			return res, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	m.set("setup_s", median(setups))

	ops := w.opList(cfg.seed, cfg.quick)
	var vars0 map[string]float64
	if d != nil {
		defer d.stop()
		// One untimed pass of the op list: a daemon's users do not pay the
		// compile and the cold stage caches of their study again. It is
		// four fifths fsync on the host's disk (see below), so it stays
		// out of setup_s.
		t0 := time.Now()
		for _, r := range runPass(ctx, e, w, d, ops, "warm") {
			if r.Failed != "" {
				return res, fmt.Errorf("warm-up %s: %s", r.Key, r.Failed)
			}
		}
		m.set("serve.warmup_pass_s", time.Since(t0).Seconds())
		var err error
		if vars0, err = d.vars(); err != nil {
			return res, err
		}
		m.set("bench.fsync_probe_ms", fsyncProbeMS(d.dataDir))
	}

	budget := cfg.seconds
	if cfg.trace {
		// The traced children run inside the same time budget.
		t0 := time.Now()
		if err := traceWorkload(ctx, e, w, &res); err != nil {
			return res, err
		}
		budget -= time.Since(t0).Seconds()
	}

	var passes []passResult
	var walls []float64
	steal0, ticks0 := hostTicks()
	var user0 float64
	if d != nil {
		user0 = d.userSeconds()
	}
	start := time.Now()
	for {
		n := len(passes)
		if ctx.Err() != nil {
			// Interrupted: the ops of this and any further pass would
			// fail at once.
			return res, ctx.Err()
		}
		if n >= cfg.minPasses && time.Since(start).Seconds()+median(walls) > budget {
			break
		}
		var cpu0 float64
		if d != nil {
			cpu0 = d.cpuSeconds()
		}
		t0 := time.Now()
		p := passResult{ops: runPass(ctx, e, w, d, ops, fmt.Sprintf("p%d", n))}
		p.wall = time.Since(t0).Seconds()
		if d != nil {
			p.cpu, p.rss = d.cpuSeconds()-cpu0, d.peakRSSMB()
		} else {
			for _, r := range p.ops {
				p.cpu += r.CPU
				p.rss = max(p.rss, r.RSSMB)
			}
		}
		passes = append(passes, p)
		walls = append(walls, p.wall)
	}
	if steal1, ticks1 := hostTicks(); ticks1 > ticks0 {
		m.set("bench.host_steal_ratio", (steal1-steal0)/(ticks1-ticks0))
	}
	var userPerPass float64
	if d != nil {
		userPerPass = (d.userSeconds() - user0) / float64(len(passes))
	}

	// Where the workload is another one's ops shipped to workers, the
	// traced run also times those ops in-process, for the wire +
	// chunking ratio.
	if base := workloadByName(w.InProcess); cfg.trace && base != nil {
		bops := base.opList(cfg.seed, cfg.quick)
		var with, without []float64
		for _, p := range passes {
			with = append(with, sumOps(p.ops, func(r opResult) float64 { return r.Search }))
		}
		// Fifteen in-process passes are 2 s; three were one noisy-neighbour
		// burst away from a ratio below 1.
		for i := 0; i < min(len(passes), 15); i++ {
			without = append(without, sumOps(runPass(ctx, e, base, nil, bops, "base"), func(r opResult) float64 { return r.Search }))
		}
		m.set("dispatch.search_overhead_ratio", median(with)/median(without))
	}

	var rss []float64
	for _, p := range passes {
		rss = append(rss, p.rss)
	}
	peakRSS := median(rss)
	if d != nil {
		vars1, err := d.vars()
		if err != nil {
			return res, err
		}
		serveMetrics(m, vars0, vars1, len(passes)*len(ops))
		// The daemon keeps every study it has served, so its memory
		// grows with the run: read it where every run has been, at the
		// end of the last of the passes no run goes without.
		peakRSS = rss[min(cfg.minPasses, len(rss))-1]
	}
	reduce(&res, e.golden, passes, w.Clients, peakRSS)
	if d != nil {
		// Four fifths of a serve pass is fsync on the host's disk (0.08 s
		// a pass with the data on tmpfs, 0.3-1.1 s on the reference box's
		// ext4), whose latency differs by a third between one 12 s window
		// and the next, and the kernel's share of it is charged to the
		// daemon's threads. What repeats is the daemon's user-mode time:
		// the part of a pass that is this repository's code. It is read
		// over all the passes at once, because /proc counts it in 10 ms.
		m.set("serve.pass_cpu_total_s", *m["pass_cpu_s"].Value)
		m.set("pass_cpu_s", userPerPass)
	}
	return res, nil
}

// hostTicks reads the host-wide CPU accounting of /proc/stat: the ticks
// the hypervisor gave to other guests while this one wanted to run
// ("steal"), and all ticks. Zero where /proc/stat has no such line. An
// indicator only: no time is chosen or corrected by it.
func hostTicks() (steal, total float64) {
	raw, _ := os.ReadFile("/proc/stat")
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func sumOps(ops []opResult, f func(opResult) float64) float64 {
	var s float64
	for _, r := range ops {
		s += f(r)
	}
	return s
}

// perPass is the median over passes of the sum of f over a pass's ops.
func perPass(passes []passResult, f func(opResult) float64) float64 {
	var xs []float64
	for _, p := range passes {
		xs = append(xs, sumOps(p.ops, f))
	}
	return median(xs)
}

// reduce turns the observed passes into metrics, and checks every op's
// output: all passes of an op must digest equal, and equal to the
// golden where one is recorded.
func reduce(res *runResult, golden map[string]string, passes []passResult, clients int, peakRSS float64) {
	m := res.Metrics
	var walls, cpus, opWalls, workerUps, submit, sse, result []float64
	search := true
	for _, p := range passes {
		walls, cpus = append(walls, p.wall), append(cpus, p.cpu)
		for _, r := range p.ops {
			res.Attempted++
			why := r.Failed
			if why == "" {
				switch first, seen := res.Digests[r.Key]; {
				case !seen:
					res.Digests[r.Key] = r.Digest
					if g, ok := golden[r.Key]; ok && g != r.Digest {
						why = fmt.Sprintf("digest %s != golden %s", r.Digest, g)
					}
				case first != r.Digest:
					why = fmt.Sprintf("digest %s != %s of an earlier pass", r.Digest, first)
				}
			}
			if why != "" {
				res.Failed++
				if len(res.Failures) < 8 {
					res.Failures = append(res.Failures, r.Key+": "+why)
				}
			}
			opWalls = append(opWalls, r.Wall)
			search = search && r.Search > 0
			if r.WorkerUp > 0 {
				workerUps = append(workerUps, r.WorkerUp)
			}
			if r.SubmitMS > 0 {
				submit, sse, result = append(submit, r.SubmitMS), append(sse, r.SSEFirstMS), append(result, r.ResultMS)
			}
		}
	}
	res.Passes, res.PassWalls = len(passes), walls
	m.set("bench.passes", float64(len(passes)))
	m.set("pass_s", median(walls))
	m.set("pass_cpu_s", median(cpus))
	m.set("op_p50_s", median(opWalls))
	if v, ok := percentile(opWalls, 90); ok {
		m.set("op_p90_s", v)
	}
	m.set("peak_rss_mb", peakRSS)
	m.set("fail_ratio", float64(res.Failed)/float64(res.Attempted))
	m.set("bench.ops", float64(res.Attempted))

	if search {
		m.set("pass_search_s", perPass(passes, func(r opResult) float64 { return r.Search }))
		m.set("pass_first_trial_s", perPass(passes, func(r opResult) float64 { return r.First }))
		m.set("core.startup_s", perPass(passes, func(r opResult) float64 { return r.First }))
		m.set("core.search_loop_s", perPass(passes, func(r opResult) float64 { return r.Search - r.First }))
		m.set("core.final_report_s", perPass(passes, func(r opResult) float64 { return r.Report - r.Search }))
		m.set("core.exit_tail_s", perPass(passes, func(r opResult) float64 { return r.Wall - r.Report }))
		m.set("core.search_trials_per_s", perPass(passes, func(r opResult) float64 { return float64(r.Trials) })/
			perPass(passes, func(r opResult) float64 { return r.Search }))
		var ratios []float64
		for _, p := range passes {
			ratios = append(ratios, sumOps(p.ops, func(r opResult) float64 { return r.Report })/(float64(clients)*p.wall))
		}
		m.set("bench.phase_sum_ratio", median(ratios))
	}

	fusionCount := func(pred func(fusionLine) float64) float64 {
		return perPass(passes, func(r opResult) float64 {
			var s float64
			for _, f := range r.Fusion {
				s += pred(f)
			}
			return s
		})
	}
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	m.set("ilp.budget_hits", fusionCount(func(f fusionLine) float64 { return b2f(f.Method == "ilp-incumbent") }))
	m.set("ilp.proven", fusionCount(func(f fusionLine) float64 { return b2f(f.Proven) }))
	m.set("ilp.nodes", fusionCount(func(f fusionLine) float64 { return float64(f.Nodes) }))
	var gap float64
	for _, p := range passes {
		for _, r := range p.ops {
			for _, f := range r.Fusion {
				gap = max(gap, min(f.Gap, gapUnbounded))
			}
		}
	}
	m.set("ilp.gap_max", gap)

	disp := func(f func(dispatchStats) int) float64 {
		return perPass(passes, func(r opResult) float64 {
			if r.Dispatch == nil {
				return 0
			}
			return float64(f(*r.Dispatch))
		})
	}
	m.set("dispatch.remote_points", disp(func(d dispatchStats) int { return d.Points }))
	m.set("dispatch.remote_chunks", disp(func(d dispatchStats) int { return d.Chunks }))
	m.set("dispatch.retries", disp(func(d dispatchStats) int { return d.Retries }))
	m.set("dispatch.hedges", disp(func(d dispatchStats) int { return d.Hedges }))
	m.set("dispatch.respawns", disp(func(d dispatchStats) int { return d.Respawns }))
	m.set("dispatch.degraded_chunks", disp(func(d dispatchStats) int { return d.Degraded }))
	if len(workerUps) > 0 {
		m.set("dispatch.worker_up_s", median(workerUps))
	}

	for name, xs := range map[string][]float64{"serve.submit_ms": submit, "serve.sse_first_event_ms": sse, "serve.result_ms": result} {
		if len(xs) == 0 {
			continue
		}
		m.set(name+"_p50", median(xs))
		if v, ok := percentile(xs, 90); ok {
			m.set(name+"_p90", v)
		}
	}
	m.fill()
}

// serveMetrics records the daemon's own counters over the measured
// passes, per op where the counter grows with every study.
func serveMetrics(m metricSet, v0, v1 map[string]float64, ops int) {
	delta := func(k string) float64 { return v1[k] - v0[k] }
	n := float64(ops)
	m.set("serve.checkpoint_writes", delta("fastserve_checkpoint_writes_total")/n)
	m.set("serve.checkpoint_bytes", delta("fastserve_checkpoint_bytes_total")/n)
	m.set("serve.ilp_deadline_hits", delta("fastserve_ilp_deadline_hits_total"))
	m.set("serve.shed", delta("fastserve_shed_total"))
	m.set("core.plan_cache_hits", delta("fast_plan_cache_hits_total")/n)
	m.set("core.plan_cache_misses", delta("fast_plan_cache_misses_total"))
}

// traceWorkload runs the workload's representative op in-process in two
// fresh children of the harness — untraced, then traced with the layer
// replay — and folds the traced child's metrics into res.
func traceWorkload(ctx context.Context, e *env, w *workload, res *runResult) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	child := func(traced bool) (inprocResult, error) {
		var out inprocResult
		raw, _ := json.Marshal(inprocRequest{Spec: w.Traced, Traced: traced, BinDir: e.binDir, DataDir: e.runDir})
		cmd := groupCommand(ctx, self, "-inproc", string(raw))
		cmd.Dir = e.root
		var stderr strings.Builder
		cmd.Stderr = &stderr
		b, err := cmd.Output()
		if err != nil {
			return out, fmt.Errorf("traced run of %s: %v\n%s", w.Name, err, stderr.String())
		}
		return out, json.Unmarshal(b, &out)
	}
	plain, err := child(false)
	if err != nil {
		return err
	}
	traced, err := child(true)
	if err != nil {
		return err
	}
	if traced.ReplayMismatch {
		res.Failed++
		res.Failures = append(res.Failures, "traced run: a fresh optimizer fed the transcript proposed different points")
	}
	for k, v := range traced.Metrics {
		res.Metrics.set(k, min(v, gapUnbounded))
	}
	res.Metrics.set("bench.trace_overhead_ratio", traced.RootS/plain.RootS)
	res.spans = traced.Spans
	return nil
}
