package main

// gapUnbounded stands in for the "gap unbounded" the solver prints when
// it has no finite bound: JSON has no infinity, and any finite gap must
// still compare as better.
const gapUnbounded = 1e9

// metricDef is one row of the catalogue: every number the harness
// prints, with its unit and direction. E2E rows are the end-to-end
// metrics of BENCHMARK.json (defined and non-zero on every workload);
// the rest are its per-layer metrics.
type metricDef struct {
	Name, Unit, Better string
	E2E                bool
	Doc                string
}

var catalogue = []metricDef{
	{"setup_s", "s", "lower", true, "build of the five binaries + untimed warm execs (+ daemon start on serve_fsync); median of 3 set-ups"},
	{"pass_cpu_s", "s", "lower", true, "median over passes of the user+sys CPU time of the pass's child processes, workers included; on serve_fsync the daemon's user-mode CPU time per pass, without the kernel's share of every fsync"},
	{"peak_rss_mb", "MiB", "lower", true, "median over passes of the largest peak resident set among the pass's processes (serve_fsync: the daemon's peak when the fifth timed pass ends)"},

	{"pass_s", "s", "lower", false, "median over passes of the wall time of one pass: the headline time-to-result (not gated: on a shared host it is the neighbours' as much as the code's)"},
	{"pass_search_s", "s", "lower", false, "median over passes of the sum over ops of start (or HTTP submit) -> last trial told; report workloads have none"},
	{"pass_first_trial_s", "s", "lower", false, "median over passes of the sum over ops of start -> first progress line / first SSE frame with a told trial"},
	{"op_p50_s", "s", "lower", false, "median per-op time to result over all ops of the run"},
	{"op_p90_s", "s", "lower", false, "90th percentile per-op time; only with >= 100 ops in the run"},
	{"fail_ratio", "ratio", "lower", false, "ops failed / ops attempted (non-zero exit, non-2xx, timeout, digest mismatch)"},
	{"bench.passes", "count", "higher", false, "timed passes in the run"},
	{"bench.ops", "count", "higher", false, "ops attempted in the run (the sample count of op_p50_s)"},
	{"bench.host_steal_ratio", "ratio", "lower", false, "share of the host's CPU ticks the hypervisor gave to other guests during the timed passes; an indicator only: above a few percent the times are the neighbours', not the code's"},
	{"bench.fsync_probe_ms", "ms", "lower", false, "median 4 KiB append+fsync in the data dir's filesystem"},

	{"core.startup_s", "s", "lower", false, "per pass: sum of start -> first trial told"},
	{"core.search_loop_s", "s", "lower", false, "per pass: sum of first -> last trial told"},
	{"core.final_report_s", "s", "lower", false, "per pass: sum of last trial told -> `done in` line (SSE `done` frame)"},
	{"core.exit_tail_s", "s", "lower", false, "per pass: sum of `done in` line -> process exit (result fetched): report printing, baseline comparisons"},
	{"bench.phase_sum_ratio", "ratio", "higher", false, "per pass: (startup + search loop + final report) / (clients x pass_s); 1 minus this is process exit and the harness between ops"},
	{"core.search_trials_per_s", "1/s", "higher", false, "trials / pass_search_s (continuity with BENCH_PR*.json; not gated)"},

	{"ilp.budget_hits", "count", "lower", false, "per pass: fusion lines that ended ilp-incumbent (deadline hit)"},
	{"ilp.proven", "count", "higher", false, "per pass: fusion lines that ended ilp-optimal"},
	{"ilp.nodes", "count", "lower", false, "per pass: branch-and-bound nodes over all fusion lines"},
	{"ilp.gap_max", "ratio", "lower", false, "largest printed optimality gap (1e9 = `gap unbounded`)"},

	{"dispatch.remote_points", "count", "higher", false, "per pass: points evaluated by workers"},
	{"dispatch.remote_chunks", "count", "lower", false, "per pass: chunks shipped to workers"},
	{"dispatch.retries", "count", "lower", false, "per pass: chunk retries"},
	{"dispatch.hedges", "count", "lower", false, "per pass: hedged chunks"},
	{"dispatch.respawns", "count", "lower", false, "per pass: worker respawns"},
	{"dispatch.degraded_chunks", "count", "lower", false, "per pass: chunks that fell back to in-process"},
	{"dispatch.worker_up_s", "s", "lower", false, "median start -> last `worker up` line"},
	{"dispatch.search_overhead_ratio", "ratio", "lower", false, "pass_search_s with -workers 2 / the same ops in-process (traced run only)"},

	{"serve.pass_cpu_total_s", "s", "lower", false, "median over passes of the daemon's on-CPU time, user and kernel: the kernel's part is fsync on the host's disk"},
	{"serve.warmup_pass_s", "s", "lower", false, "the untimed warm-up pass of a fresh daemon (compile + cold caches + fsync), once a run"},
	{"serve.checkpoint_writes", "count", "lower", false, "/debug/vars delta per op"},
	{"serve.checkpoint_bytes", "B", "lower", false, "/debug/vars delta per op"},
	{"serve.ilp_deadline_hits", "count", "lower", false, "/debug/vars delta over the run"},
	{"serve.shed", "count", "lower", false, "/debug/vars delta over the run"},
	{"core.plan_cache_hits", "count", "higher", false, "/debug/vars delta per op"},
	{"core.plan_cache_misses", "count", "lower", false, "/debug/vars delta over the run"},
	{"serve.submit_ms_p50", "ms", "lower", false, "client-side POST /v1/studies"},
	{"serve.submit_ms_p90", "ms", "lower", false, "only with >= 100 ops"},
	{"serve.sse_first_event_ms_p50", "ms", "lower", false, "client-side GET events -> first frame"},
	{"serve.sse_first_event_ms_p90", "ms", "lower", false, "only with >= 100 ops"},
	{"serve.result_ms_p50", "ms", "lower", false, "client-side GET result"},
	{"serve.result_ms_p90", "ms", "lower", false, "only with >= 100 ops"},

	{"core.study_run_s", "s", "lower", false, "traced: root span (Study.Run; on report workloads Build+Compile+Evaluate)"},
	{"core.evaluate_batch_s", "s", "lower", false, "traced: union of the batch-objective calls under the root"},
	{"core.evaluate_batch_calls", "count", "lower", false, "traced: batch-objective calls"},
	{"core.report_tail_s", "s", "lower", false, "traced: root tail after the last told batch (the final report)"},
	{"core.self_s", "s", "lower", false, "traced: root minus its children (ask/tell, memo, sort, fan-out)"},
	{"core.unique_ratio", "ratio", "lower", false, "traced: points sent to the batch objective / trials"},
	{"models.build_s", "s", "lower", false, "replay: models.Build per (workload, native batch)"},
	{"models.graphs", "count", "lower", false, "replay: graphs built"},
	{"hlo.partition_s", "s", "lower", false, "replay: hlo.PartitionXLA per graph (also inside sim.compile_s)"},
	{"hlo.regions", "count", "lower", false, "replay: fusion regions over all graphs"},
	{"sim.compile_s", "s", "lower", false, "replay: sim.Compile per graph"},
	{"sim.compiles", "count", "lower", false, "replay: plans compiled"},
	{"sim.plan_bytes", "B", "lower", false, "replay: Plan.SizeBytes over all plans"},
	{"sim.evaluate_cold_s", "s", "lower", false, "replay: unique points through Plan.EvaluateBatch on fresh plans"},
	{"sim.evaluate_warm_us", "us", "lower", false, "replay: the same points again, per design"},
	{"sim.evals", "count", "lower", false, "replay: sim.EvalCount delta of the cold pass"},
	{"mapping.best_us", "us", "lower", false, "replay: mapping.Best per unique problem of the reported designs"},
	{"mapping.problems", "count", "lower", false, "replay: unique mapping problems"},
	{"power.evaluate_us", "us", "lower", false, "replay: power.Model.Evaluate per in-budget design"},
	{"fusion.exact_s", "s", "lower", false, "replay: exact Plan.Evaluate of the reported designs minus the greedy one"},
	{"fusion.nodes", "count", "lower", false, "replay: Result.Fusion.Nodes over the reported designs"},
	{"fusion.gap", "ratio", "lower", false, "replay: largest Result.Fusion.Gap (1e9 = unbounded)"},
	{"fusion.proven", "count", "higher", false, "replay: 1 when no exact solve ended at the deadline (ilp-incumbent)"},
	{"search.ask_s", "s", "lower", false, "replay: Ask over the transcript on a fresh optimizer"},
	{"search.tell_s", "s", "lower", false, "replay: Tell over the transcript"},
	{"search.asks", "count", "lower", false, "replay: ask/tell batches"},
	{"store.append_batch_ms_p50", "ms", "lower", false, "replay: store.Study.AppendBatch (write+fsync), first 128 batches"},
	{"store.append_batch_ms_p90", "ms", "lower", false, "only with >= 100 appends"},
	{"store.appends", "count", "lower", false, "replay: batches appended"},
	{"store.bytes", "B", "lower", false, "replay: transcript bytes appended"},
	{"bench.unattributed_ratio", "ratio", "lower", false, "traced: (root - replayed layer totals) / root; negative when the serial replay exceeds the parallel root"},
	{"bench.trace_overhead_ratio", "ratio", "lower", false, "traced root / untraced in-process root, each in a fresh process"},
	{"repo.nontest_loc", "count", "lower", false, "lines of non-test Go outside cmd/fast-bench"},
	{"repo.exported_symbols", "count", "lower", false, "exported top-level names in non-main packages outside cmd/fast-bench"},
}

func defOf(name string) *metricDef {
	for i := range catalogue {
		if catalogue[i].Name == name {
			return &catalogue[i]
		}
	}
	return nil
}

// metric is one reported value. Value is nil where the metric does not
// exist on the workload (a report op has no search phase) or is not
// eligible (a p90 below 100 samples).
type metric struct {
	Value  *float64 `json:"value"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
}

// metricSet maps every catalogue name to its value for one run.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64) {
	d := defOf(name)
	if d == nil {
		panic("fast-bench: metric " + name + " is not in the catalogue")
	}
	m[name] = metric{Value: &v, Unit: d.Unit, Better: d.Better}
}

// fill gives every catalogue metric not set a nil value, so each run
// prints the full list by name.
func (m metricSet) fill() {
	for _, d := range catalogue {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = metric{Unit: d.Unit, Better: d.Better}
		}
	}
}
