package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"fast"
	"fast/internal/arch"
	"fast/internal/core"
	"fast/internal/dispatch"
	"fast/internal/hlo"
	"fast/internal/mapping"
	"fast/internal/models"
	"fast/internal/power"
	"fast/internal/search"
	"fast/internal/sim"
	"fast/internal/store"
)

// The traced run. End-to-end numbers come from the real binaries with
// tracing off; this file gives the per-layer numbers. It runs in a
// fresh child process of the harness (so its caches start as cold as a
// CLI user's), executes the workload's representative op in-process
// with spans recorded around the seams core already has, and then
// replays the recorded transcript against each layer's public
// functions directly. It stays on functions ROADMAP keeps and off the
// ones item 4 deletes and off fusion.Options.Deadline.

// inprocResult is what the child prints on stdout.
type inprocResult struct {
	RootS   float64            `json:"root_s"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Spans   []span             `json:"spans,omitempty"`
	// ReplayMismatch: a fresh optimizer fed the recorded transcript
	// proposed other points than the recorded ones.
	ReplayMismatch bool `json:"replay_mismatch,omitempty"`
}

// inprocRequest is what the harness hands the child: the op, whether to
// record spans and replay the layers (otherwise only the root is timed,
// which is the untraced side of bench.trace_overhead_ratio), and where
// the built binaries and the run's scratch directory are.
type inprocRequest struct {
	Spec    inprocSpec `json:"spec"`
	Traced  bool       `json:"traced"`
	BinDir  string     `json:"bin_dir"`
	DataDir string     `json:"data_dir"`
}

// inprocMain is the child's entry point.
func inprocMain(requestJSON string) error {
	var req inprocRequest
	if err := json.Unmarshal([]byte(requestJSON), &req); err != nil {
		return fmt.Errorf("inproc request: %w", err)
	}
	var res inprocResult
	var err error
	if req.Spec.Model != "" {
		res, err = tracedReport(req.Spec, req.Traced)
	} else {
		res, err = tracedStudy(req.Spec, req.Traced, req.BinDir, req.DataDir)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// timed runs f and returns how long it took, in seconds.
func timed(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

// tracedStudy runs one Study.Run under a root span whose children are
// recorded through WithDispatch (every call of the batch objective)
// and WithTranscript (a mark per told batch); the tail after the last
// mark is the final report.
func tracedStudy(sp inprocSpec, traced bool, binDir, dataDir string) (inprocResult, error) {
	st := &fast.Study{Workloads: sp.Workloads, Trials: sp.Trials, Seed: sp.Seed}
	alg := search.AlgLCS
	for _, name := range sp.Objectives {
		o, err := fast.ParseObjective(name)
		if err != nil {
			return inprocResult{}, err
		}
		st.Objectives = append(st.Objectives, o)
		alg = search.AlgNSGA2
	}
	opts := []fast.Option{fast.WithParallelism(parallel)}
	if sp.BatchSize > 0 {
		opts = append(opts, fast.WithBatchSize(sp.BatchSize))
	}
	var remote core.DispatchFunc
	if sp.Workers > 0 {
		pool, err := dispatch.New(dispatch.Options{Workers: sp.Workers, WorkerCmd: []string{filepath.Join(binDir, "fast-worker")}})
		if err != nil {
			return inprocResult{}, err
		}
		defer pool.Close()
		remote = pool.Dispatch()
		opts = append(opts, fast.WithDispatch(remote))
	}
	if !traced {
		var err error
		root := timed(func() { _, err = st.Run(context.Background(), opts...) })
		return inprocResult{RootS: root}, err
	}

	tr := newTracer()
	var batches [][]search.Trial
	var points, calls int
	var lastMark int64
	root := tr.begin("core.study_run", -1)
	opts = append(opts,
		// The batch objective as core calls it: the local evaluator, or
		// the dispatcher in front of it on the workers workload.
		fast.WithDispatch(func(ctx context.Context, spec core.EvalSpec, local search.BatchObjective) search.BatchObjective {
			inner := local
			if remote != nil {
				inner = remote(ctx, spec, local)
			}
			return func(idxs [][arch.NumParams]int) []search.Evaluation {
				id := tr.begin("core.evaluate_batch", root)
				evs := inner(idxs)
				tr.end(id)
				tr.mu.Lock()
				points += len(idxs)
				calls++
				tr.mu.Unlock()
				return evs
			}
		}),
		fast.WithTranscript(func(batch []search.Trial) {
			batches = append(batches, slices.Clone(batch))
			lastMark = int64(time.Since(tr.t0))
		}))
	res, err := st.Run(context.Background(), opts...)
	tr.end(root)
	if err != nil {
		return inprocResult{}, err
	}
	// The final report is the root's tail after the last told batch.
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{ID: len(tr.spans), Parent: root, Name: "core.final_report", Start: lastMark, End: tr.spans[root].End})
	tr.mu.Unlock()

	trials := 0
	for _, b := range batches {
		trials += len(b)
	}
	m := map[string]float64{
		"core.study_run_s":          seconds(tr.spans[root].dur()),
		"core.evaluate_batch_s":     seconds(covered(tr.spans, root, "core.evaluate_batch")),
		"core.evaluate_batch_calls": float64(calls),
		"core.report_tail_s":        seconds(covered(tr.spans, root, "core.final_report")),
		"core.self_s":               seconds(selfTime(tr.spans, root)),
		"core.unique_ratio":         float64(points) / float64(trials),
	}
	if res.Best == nil {
		return inprocResult{}, fmt.Errorf("traced study found no feasible design")
	}
	finals := []*arch.Config{res.Best}
	for _, p := range res.Front() {
		finals = append(finals, p.Design)
	}
	if len(finals) > 1 {
		finals = finals[1:] // a Pareto study reports its front, not Best
	}
	mismatch := replay(m, sp, alg, batches, finals, dataDir)
	attributed := m["models.build_s"] + m["sim.compile_s"] + m["sim.evaluate_cold_s"] + m["power.prep_s"] +
		m["search.ask_s"] + m["search.tell_s"] + m["fusion.final_s"]
	delete(m, "power.prep_s")
	delete(m, "fusion.final_s")
	m["bench.unattributed_ratio"] = (m["core.study_run_s"] - attributed) / m["core.study_run_s"]
	return inprocResult{RootS: m["core.study_run_s"], Metrics: m, Spans: tr.spans, ReplayMismatch: mismatch}, nil
}

// replay feeds the recorded transcript to each layer on its own and
// times the layer's public entry points. Everything here is serial, so
// on a study run at -parallel 2 the layer totals can exceed the root's
// wall time; bench.unattributed_ratio then goes negative, which says
// how much the fan-out hid. It reports whether the fresh optimizer's
// proposals differed from the recorded ones.
func replay(m map[string]float64, sp inprocSpec, alg search.Algorithm, batches [][]search.Trial, finals []*arch.Config, dataDir string) (mismatch bool) {
	pm := power.Default()
	budget := power.DefaultBudget(pm)
	base := core.DefaultPlatform()
	simOpts := sim.FASTOptions()
	simOpts.PowerModel = pm
	space := arch.Space{}

	// search: a fresh optimizer fed the transcript; its proposals must
	// be the recorded ones.
	opt := search.New(alg, sp.Seed, sp.Trials)
	var ask, tell float64
	for _, b := range batches {
		var got [][arch.NumParams]int
		ask += timed(func() { got = opt.Ask(len(b)) })
		for i := range got {
			if got[i] != b[i].Index {
				mismatch = true
			}
		}
		tell += timed(func() { opt.Tell(b) })
	}
	m["search.ask_s"], m["search.tell_s"], m["search.asks"] = ask, tell, float64(len(batches))

	// power: decode + budget check of every unique point, as the
	// objective's prep does.
	seen := map[[arch.NumParams]int]bool{}
	var cfgs []*arch.Config
	var uniq int
	prep := timed(func() {
		for _, b := range batches {
			for _, t := range b {
				if seen[t.Index] {
					continue
				}
				seen[t.Index] = true
				uniq++
				cfg := space.Decode(t.Index, base)
				if cfg.Validate() != nil {
					continue
				}
				if e := pm.Evaluate(cfg); e.TotalPower() > budget.MaxTDPW || e.TotalArea() > budget.MaxAreaMM2 {
					continue
				}
				cfgs = append(cfgs, cfg)
			}
		}
	})
	m["power.prep_s"] = prep
	m["power.evaluate_us"] = timed(func() {
		for _, c := range cfgs {
			pm.Evaluate(c)
		}
	}) * 1e6 / float64(max(len(cfgs), 1))

	// models, hlo, sim.Compile: one graph and one fresh plan per
	// (workload, native batch) the transcript touched.
	byBatch := map[int64][]*arch.Config{}
	for _, c := range cfgs {
		byBatch[c.NativeBatch] = append(byBatch[c.NativeBatch], c)
	}
	nbs := make([]int64, 0, len(byBatch))
	for nb := range byBatch {
		nbs = append(nbs, nb)
	}
	slices.Sort(nbs)
	var build, part, compile, cold, warm float64
	var graphs, regions, planBytes, evaluated int
	evals0 := sim.EvalCount()
	alive := map[*arch.Config]bool{}
	for _, c := range cfgs {
		alive[c] = true
	}
	for _, w := range sp.Workloads {
		for _, nb := range nbs {
			var g *hlo.Graph
			build += timed(func() { g, _ = models.Build(w, nb) })
			if g == nil {
				continue
			}
			graphs++
			part += timed(func() { regions += len(hlo.PartitionXLA(g).Regions) })
			var plan *sim.Plan
			compile += timed(func() { plan, _ = sim.Compile(g, simOpts) })
			if plan == nil {
				continue
			}
			planBytes += int(plan.SizeBytes())
			var live []*arch.Config
			for _, c := range byBatch[nb] {
				if alive[c] {
					live = append(live, c)
				}
			}
			var rs []*sim.Result
			cold += timed(func() { rs, _ = plan.EvaluateBatch(live) })
			warm += timed(func() { _, _ = plan.EvaluateBatch(live) })
			evaluated += len(live)
			// A design infeasible on one workload is dropped from the
			// later ones, as the batch objective does.
			for i, r := range rs {
				if r.ScheduleFailed || r.QPS <= 0 {
					alive[live[i]] = false
				}
			}
		}
	}
	m["models.build_s"], m["models.graphs"] = build, float64(graphs)
	m["hlo.partition_s"], m["hlo.regions"] = part, float64(regions)
	m["sim.compile_s"], m["sim.compiles"], m["sim.plan_bytes"] = compile, float64(graphs), float64(planBytes)
	m["sim.evaluate_cold_s"] = cold
	m["sim.evaluate_warm_us"] = warm * 1e6 / float64(max(evaluated, 1))
	m["sim.evals"] = float64(sim.EvalCount()-evals0) / 2 // cold + warm pass

	// mapping and fusion on the reported designs: what the final report
	// pays per design × workload.
	exact := simOpts
	exact.Fusion.GreedyOnly = false
	var best, fexact, ffinal float64
	var problems, nodes int
	var gap float64
	proven := 1.0
	for _, d := range finals {
		for _, w := range sp.Workloads {
			g, err := models.Build(w, d.NativeBatch)
			if err != nil {
				continue
			}
			s, n := mappingBest(g, d, simOpts.Mapping)
			best, problems = best+s, problems+n
			gp, err1 := sim.Compile(g, simOpts)
			ep, err2 := sim.Compile(g, exact)
			if err1 != nil || err2 != nil {
				continue
			}
			greedy := timed(func() { _, _ = gp.Evaluate(d) })
			var r *sim.Result
			full := timed(func() { r, _ = ep.Evaluate(d) })
			ffinal += full
			fexact += full - greedy
			if r != nil {
				nodes += r.Fusion.Nodes
				gap = max(gap, r.Fusion.Gap)
				if r.Fusion.Method == "ilp-incumbent" {
					proven = 0
				}
			}
		}
	}
	m["mapping.best_us"], m["mapping.problems"] = best*1e6/float64(max(problems, 1)), float64(problems)
	m["fusion.exact_s"], m["fusion.nodes"], m["fusion.gap"], m["fusion.proven"] = fexact, float64(nodes), min(gap, gapUnbounded), proven
	m["fusion.final_s"] = ffinal / parallel // the report fans design × workload over -parallel workers

	storeReplay(m, sp, alg, batches, dataDir)
	return mismatch
}

// mappingBest times mapping.Best over the unique mapping problems of a
// graph on one design: what a cold mapping stage pays for it.
func mappingBest(g *hlo.Graph, d *arch.Config, opts mapping.Options) (seconds float64, problems int) {
	seen := map[mapping.Problem]bool{}
	for _, o := range g.Ops {
		if p, ok := mapping.FromOp(o); ok && !seen[p] {
			seen[p] = true
			seconds += timed(func() { mapping.Best(p, d, opts) })
		}
	}
	return seconds, len(seen)
}

// storeReplay appends the transcript's batches to a store.Study in the
// data dir — the checkpoint path fast-serve pays per told batch.
func storeReplay(m map[string]float64, sp inprocSpec, alg search.Algorithm, batches [][]search.Trial, dataDir string) {
	st, err := store.Open(filepath.Join(dataDir, "replay"))
	if err != nil {
		return
	}
	defer os.RemoveAll(st.Root())
	s, err := st.Create(store.Spec{Tenant: "bench", ID: "replay", Workloads: sp.Workloads, Trials: sp.Trials, Seed: sp.Seed})
	if err != nil || s.BeginTranscript(alg, sp.Seed, sp.Trials) != nil {
		return
	}
	defer s.CloseTranscript()
	// Enough appends for a p90; the rest of a 5000-trial transcript
	// would only repeat them.
	if len(batches) > 128 {
		batches = batches[:128]
	}
	var ms []float64
	var bytes int
	for _, b := range batches {
		var n int
		d := timed(func() { n, err = s.AppendBatch(b) })
		if err != nil {
			return
		}
		ms = append(ms, d*1e3)
		bytes += n
	}
	m["store.append_batch_ms_p50"] = median(ms)
	if p90, ok := percentile(ms, 90); ok {
		m["store.append_batch_ms_p90"] = p90
	}
	m["store.appends"], m["store.bytes"] = float64(len(ms)), float64(bytes)
}

// tracedReport is the report workloads' representative op: what
// fast-sim does for one design, as three direct calls under the root.
func tracedReport(sp inprocSpec, traced bool) (inprocResult, error) {
	var d *fast.Design
	if sp.DesignFile != "" {
		var err error
		if d, err = fast.LoadDesign(sp.DesignFile); err != nil {
			return inprocResult{}, err
		}
	} else if d = fast.DesignByName(sp.Design); d == nil {
		return inprocResult{}, fmt.Errorf("unknown design %q", sp.Design)
	}
	opts := fast.FASTOptions()
	opts.Fusion.GreedyOnly = false

	tr := newTracer()
	root := tr.begin("core.study_run", -1)
	id := tr.begin("models.build", root)
	g, err := fast.BuildModel(sp.Model, d.NativeBatch)
	tr.end(id)
	if err != nil {
		return inprocResult{}, err
	}
	id = tr.begin("sim.compile", root)
	plan, err := fast.Compile(g, opts)
	tr.end(id)
	if err != nil {
		return inprocResult{}, err
	}
	id = tr.begin("core.final_report", root)
	r, err := plan.Evaluate(d)
	tr.end(id)
	tr.end(root)
	if err != nil {
		return inprocResult{}, err
	}
	if !traced {
		return inprocResult{RootS: seconds(tr.spans[root].dur())}, nil
	}
	greedyOpts := fast.FASTOptions()
	gp, err := fast.Compile(g, greedyOpts)
	if err != nil {
		return inprocResult{}, err
	}
	greedy := timed(func() { _, _ = gp.Evaluate(d) })
	best, problems := mappingBest(g, d, opts.Mapping)
	proven := 1.0
	if r.Fusion.Method == "ilp-incumbent" {
		proven = 0
	}
	pm := power.Default()
	rootS := seconds(tr.spans[root].dur())
	m := map[string]float64{
		"core.study_run_s":         rootS,
		"core.report_tail_s":       seconds(covered(tr.spans, root, "core.final_report")),
		"core.self_s":              seconds(selfTime(tr.spans, root)),
		"models.build_s":           seconds(covered(tr.spans, root, "models.build")),
		"models.graphs":            1,
		"hlo.partition_s":          timed(func() { hlo.PartitionXLA(g) }),
		"hlo.regions":              float64(len(r.Regions)),
		"sim.compile_s":            seconds(covered(tr.spans, root, "sim.compile")),
		"sim.compiles":             1,
		"sim.plan_bytes":           float64(plan.SizeBytes()),
		"sim.evaluate_cold_s":      greedy,
		"sim.evaluate_warm_us":     timed(func() { _, _ = gp.Evaluate(d) }) * 1e6,
		"sim.evals":                1,
		"mapping.best_us":          best * 1e6 / float64(max(problems, 1)),
		"mapping.problems":         float64(problems),
		"power.evaluate_us":        timed(func() { pm.Evaluate(d) }) * 1e6,
		"fusion.exact_s":           seconds(covered(tr.spans, root, "core.final_report")) - greedy,
		"fusion.nodes":             float64(r.Fusion.Nodes),
		"fusion.gap":               min(r.Fusion.Gap, gapUnbounded),
		"fusion.proven":            proven,
		"bench.unattributed_ratio": seconds(selfTime(tr.spans, root)) / rootS,
	}
	return inprocResult{RootS: rootS, Metrics: m, Spans: tr.spans}, nil
}
