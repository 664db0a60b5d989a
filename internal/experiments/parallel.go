package experiments

// Parallel full-ILP reporting simulations.
//
// The design tables (Table 5/6, Figures 13-15) and the per-workload
// columns of the search figures report final design metrics, so they
// run the FAST stack with the exact fusion-ILP solve rather than the
// search loop's greedy-only stack. Each job is an independent
// branch-and-bound solve; simAll fans them across a bounded worker pool
// (Options.Parallelism, the same knob the studies use) with
// index-slotted results. Job order — and therefore table layout — is
// independent of parallelism, and so are cell values: every solve stops
// on a count of branch-and-bound nodes, never on the clock, so a loaded
// machine reports the same cells as an idle one.

import (
	"fast/internal/arch"
	"fast/internal/core"
	"fast/internal/sim"
)

// fullILP is the reporting software stack: the FAST stack with the
// exact ILP fusion solve enabled under o's per-solve node budget (a
// budget or stall stop keeps the greedy-seeded incumbent and reports
// its gap).
func (o Options) fullILP() sim.Options {
	s := sim.FASTOptions()
	s.Fusion.GreedyOnly = false
	s.Fusion.MaxNodes = o.ILPNodes
	return s
}

// simJob is one reporting simulation: a workload on a design (at the
// design's native batch) under a software stack.
type simJob struct {
	model string
	cfg   *arch.Config
	opts  sim.Options
}

// simAll runs the jobs concurrently (parallelism 0 = one worker per
// CPU) and returns results in job order. Each job goes through
// core.EvaluateDesign and therefore the process-wide graph and plan
// caches, so each (workload, batch, options) graph is built and
// compiled once per fast-experiments run — Table 5's FAST-Large column
// is also Figure 14's fused row, and Figure 12 re-simulates every
// sampled design on one EfficientNet-B7 plan. An error (unknown model,
// invalid design) panics — these are table-generator programming
// errors, not runtime conditions.
func simAll(parallelism int, jobs []simJob) []*sim.Result {
	out := make([]*sim.Result, len(jobs))
	simEach(parallelism, jobs, func(i int, r *sim.Result) { out[i] = r })
	return out
}

// simEach is simAll for a table that keeps only a summary of each
// result: fn sees job i's result on the worker that simulated it, and
// the Result is garbage once fn returns. Figure 12 keeps three numbers
// of each of thousands of sampled designs this way.
func simEach(parallelism int, jobs []simJob, fn func(i int, r *sim.Result)) {
	errs := make([]error, len(jobs))
	core.ForEach(parallelism, len(jobs), func(i int) {
		j := jobs[i]
		wr, err := core.EvaluateDesign(j.cfg, []string{j.model}, j.opts)
		if err != nil {
			errs[i] = err
			return
		}
		fn(i, wr[0].Result)
	})
	for _, err := range errs {
		if err != nil {
			panic(err)
		}
	}
}
