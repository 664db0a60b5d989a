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
// independent of parallelism; cell values are too, except that
// ILPDeadline is a wall-clock budget per solve, so a loaded or
// oversubscribed machine can demote a borderline cell from a proven
// optimum to the greedy-seeded incumbent (the same SCIP-timeout
// caveat every exact-ILP path in this repo carries). A solve that ends
// on its stall limit, 16,384 nodes without improvement, ends at the
// same node on any host; only solves whose nodes are too slow to reach
// that limit inside ILPDeadline carry the caveat.

import (
	"fast/internal/arch"
	"fast/internal/core"
	"fast/internal/sim"
)

// fullILP is the reporting software stack: the FAST stack with the
// exact ILP fusion solve enabled under o's per-solve deadline (a
// deadline or stall stop keeps the greedy-seeded incumbent and reports
// its gap).
func (o Options) fullILP() sim.Options {
	s := sim.FASTOptions()
	s.Fusion.GreedyOnly = false
	s.Fusion.Deadline = o.ILPDeadline
	return s
}

// simJob is one reporting simulation: a workload on a design (at the
// design's native batch) under a software stack.
type simJob struct {
	model string
	cfg   *arch.Config
	opts  sim.Options
}

// simAll runs the jobs concurrently and returns results in job order.
// Each job goes through core.EvaluateDesign and therefore the
// process-wide compiled-plan cache: a (workload, design, options)
// simulation repeated across tables — Table 5's FAST-Large column is
// also Figure 14's fused row — pays its compile and exact-ILP solve
// once per fast-experiments run. Like the serial sim.Simulate call
// sites this replaces, an error (unknown model, invalid design) panics
// — these are table-generator programming errors, not runtime
// conditions.
func simAll(parallelism int, jobs []simJob) []*sim.Result {
	out := make([]*sim.Result, len(jobs))
	errs := make([]error, len(jobs))
	core.ForEach(parallelism, len(jobs), func(i int) {
		j := jobs[i]
		wr, err := core.EvaluateDesign(j.cfg, []string{j.model}, j.opts)
		if err != nil {
			errs[i] = err
			return
		}
		out[i] = wr[0].Result
	})
	for _, err := range errs {
		if err != nil {
			panic(err)
		}
	}
	return out
}
