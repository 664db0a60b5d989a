// Package core is the FAST framework itself (§5, Figure 1): it wires the
// datapath search space, the architectural simulator (schedule mapping +
// FAST fusion + power/area models), the constraint set (Eq. 3-5), and a
// black-box optimizer into a Study that designs an accelerator for one or
// several workloads.
package core

import (
	"context"
	"fmt"
	"math"

	"fast/internal/arch"
	"fast/internal/search"
	"fast/internal/sim"
)

// ObjectiveKind selects an optimization target f(h,w) (Eq. 3). Scalar
// studies (Study.Objective) accept the two maximization targets the
// paper searches with; multi-objective studies (Study.Objectives) also
// accept the budget metrics TDP and Area as minimization targets, which
// turns the budget-constrained search into a trade-off frontier.
type ObjectiveKind int

const (
	// PerfPerTDP maximizes QPS per watt (the paper's headline metric).
	PerfPerTDP ObjectiveKind = iota
	// Perf maximizes raw QPS subject to the budget (the Figure 9 "pure
	// performance" objective).
	Perf
	// TDP minimizes the power-virus thermal design power (watts).
	// Multi-objective studies only.
	TDP
	// Area minimizes the die area (mm²). Multi-objective studies only.
	Area

	numObjectiveKinds = int(Area) + 1
)

// String implements fmt.Stringer. An out-of-range kind renders as a
// name ParseObjective rejects, so it cannot pass spec validation.
func (o ObjectiveKind) String() string {
	switch o {
	case PerfPerTDP:
		return "perf-per-tdp"
	case Perf:
		return "perf"
	case TDP:
		return "tdp"
	case Area:
		return "area"
	}
	return fmt.Sprintf("objective(%d)", int(o))
}

// Maximize reports the objective's direction: true for the performance
// metrics, false for the cost metrics (TDP, area).
func (o ObjectiveKind) Maximize() bool { return o == Perf || o == PerfPerTDP }

// ParseObjective resolves an objective name as accepted by the CLIs:
// "perf-per-tdp" (or "perf/tdp"), "perf", "tdp", "area".
func ParseObjective(name string) (ObjectiveKind, error) {
	switch name {
	case "perf-per-tdp", "perf/tdp":
		return PerfPerTDP, nil
	case "perf":
		return Perf, nil
	case "tdp":
		return TDP, nil
	case "area":
		return Area, nil
	}
	return 0, fmt.Errorf("core: unknown objective %q (want perf-per-tdp, perf, tdp, or area)", name)
}

// Study describes one FAST search experiment.
type Study struct {
	// Workloads are canonical model names (see models.Build). Multiple
	// names optimize the geometric mean across them (§6.2.1).
	Workloads []string
	// Objective is the optimization target of a scalar study. Ignored
	// when Objectives is set.
	Objective ObjectiveKind
	// Objectives, when non-empty, makes the study multi-objective: the
	// search returns the Pareto front over these targets instead of a
	// single best design (StudyResult.Front). Per-workload metrics are
	// geomean-folded exactly like a scalar study; all objectives of a
	// trial are derived from one simulation per (design, workload), so
	// extra objectives are essentially free. A 1-element Objectives is
	// the degenerate case and follows the identical trajectory as the
	// equivalent scalar study.
	Objectives []ObjectiveKind
	// FrontCap bounds the returned Pareto front; overflow is pruned by
	// crowding distance (most-crowded point evicted first). 0 uses
	// DefaultFrontCap; negative is unbounded.
	FrontCap int
	// Algorithm selects the optimizer (random / lcs / bayesian).
	Algorithm search.Algorithm
	// Trials bounds the evaluation count (the paper runs 5000; these
	// simulations are ~10^4× faster than the paper's, so a few hundred
	// reach comparable convergence).
	Trials int
	// Seed makes the study deterministic.
	Seed int64
	// SimOptions configures the simulator; zero value uses
	// sim.FASTOptions().
	SimOptions *sim.Options
	// LatencyBoundSec optionally rejects designs whose batch latency
	// exceeds the bound on any workload (e.g. the MLPerf 15 ms image
	// classification limit discussed in §6.2.5).
	LatencyBoundSec float64
}

// WorkloadResult pairs a workload with its simulation on a design.
type WorkloadResult struct {
	Name   string
	Result *sim.Result
}

// StudyResult is a completed search.
type StudyResult struct {
	// Best is the winning design (nil if no feasible design was found).
	// For a multi-objective study this is the front point that is best
	// on the first objective.
	Best *arch.Config
	// BestValue is the winning objective value (the raw first-objective
	// value for a multi-objective study, natural units).
	BestValue float64
	// Search holds the full trial history (convergence curves, Fig. 11).
	Search search.Result
	// PerWorkload re-simulates the winning design on each workload with
	// the full (ILP-backed) fusion solve. Scalar studies only; a
	// multi-objective study carries per-point results on Front()
	// instead.
	PerWorkload []WorkloadResult

	// front is the Pareto front of a multi-objective study (Front()).
	front []FrontPoint
}

// DefaultPlatform returns the fixed attributes FAST candidates inherit: a
// single core at 1 GHz on GDDR6 (the paper's new-process, single-chip
// inference platform).
func DefaultPlatform() *arch.Config {
	c := arch.FASTLarge().Clone("fast-candidate")
	return c
}

// Option configures one Study.Run invocation (concurrency and
// observability knobs, as opposed to the Study fields that define the
// experiment itself).
type Option func(*runConfig)

type runConfig struct {
	parallelism int
	batchSize   int
	onBatch     func([]search.Trial)
	resume      *search.Snapshot
	dispatch    DispatchFunc
}

// WithParallelism bounds concurrent design evaluations. n <= 0 (the
// default) uses one worker per available CPU. Parallelism never changes
// the search trajectory: a study with a fixed seed returns the same
// result at any setting.
func WithParallelism(n int) Option {
	return func(c *runConfig) { c.parallelism = n }
}

// WithBatchSize overrides the ask/tell batch width (default
// defaultBatchSize). Unlike parallelism this is algorithmic state:
// changing it changes which designs the optimizer proposes.
func WithBatchSize(n int) Option {
	return func(c *runConfig) { c.batchSize = n }
}

// Run executes the study until the trial budget is exhausted or ctx is
// canceled. Every study takes the same path: the Study's defaults
// resolve into an EvalSpec, BuildBatchEvaluator compiles it, an optional
// DispatchFunc wraps the evaluator, one runner drives the optimizer, and
// finalReport re-simulates the winner (or the whole front) with the
// exact fusion solve. Cancellation is graceful: in-flight evaluations
// finish, and the partial trial history — with Best/BestValue (and the
// front of the partial history) populated from it — is returned together
// with ctx.Err(); the final re-simulation is skipped.
func (s *Study) Run(ctx context.Context, opts ...Option) (*StudyResult, error) {
	var rc runConfig
	for _, o := range opts {
		o(&rc)
	}
	if s.Trials <= 0 {
		return nil, fmt.Errorf("core: trials must be positive")
	}
	spec := s.evalSpec()
	evaluate, err := BuildBatchEvaluator(spec)
	if err != nil {
		return nil, err
	}
	if rc.dispatch != nil {
		evaluate = rc.dispatch(ctx, spec, evaluate)
	}

	multi := len(s.Objectives) > 0
	primary, alg := s.Objective, search.AlgLCS
	if multi {
		primary, alg = s.Objectives[0], search.AlgNSGA2
	}
	if s.Algorithm != "" {
		alg = s.Algorithm
	}
	rn, prior, err := s.buildRunner(rc, alg, evaluate)
	if err != nil {
		return nil, err
	}
	sr, runErr := rn.Run(ctx)
	sr = mergePrior(prior, sr)

	out := &StudyResult{Search: sr}
	if sr.Best.Feasible {
		out.BestValue = rawValue(primary, sr.Best.Value)
		out.Best = arch.Space{}.Decode(sr.Best.Index, spec.Base)
		out.Best.Name = fmt.Sprintf("fast-%s-%s", primary, shortName(s.Workloads))
	}
	var designs []*arch.Config // what finalReport re-simulates
	if multi {
		out.front = s.paretoFront(sr.History, spec.Base)
		for _, pt := range out.front {
			designs = append(designs, pt.Design)
		}
	} else if out.Best != nil {
		designs = []*arch.Config{out.Best}
	}
	if runErr != nil {
		// Canceled: hand back the partial history and best-so-far design
		// (or front) without the potentially slow final re-simulation.
		return out, runErr
	}

	finalOpts := spec.SimOptions
	finalOpts.Fusion.GreedyOnly = false
	reports, err := finalReport(rc.parallelism, designs, s.Workloads, finalOpts)
	if err != nil {
		return nil, err
	}
	if multi {
		for i := range out.front {
			out.front[i].PerWorkload = reports[i]
		}
	} else if len(reports) > 0 {
		out.PerWorkload = reports[0]
	}
	return out, nil
}

// finalReport simulates every design on every workload with opts — the
// full exact-ILP fusion solve on the reporting paths — through the
// process-wide plan cache: one compile per (workload, batch), and each
// design's exact fusion placement memoized on its plan, shared with
// later re-evaluations of the same design. The (design, workload) pairs are independent solves, so
// the whole cross product fans out across one ForEach pool; results land
// in index-addressed slots, keeping reports identical at any
// parallelism.
func finalReport(parallelism int, designs []*arch.Config, workloads []string, opts sim.Options) ([][]WorkloadResult, error) {
	fp := opts.Fingerprint()
	nw := len(workloads)
	reports := make([][]WorkloadResult, len(designs))
	for i := range reports {
		reports[i] = make([]WorkloadResult, nw)
	}
	errs := make([]error, len(designs)*nw)
	ForEach(parallelism, len(errs), func(k int) {
		cfg, w := designs[k/nw], workloads[k%nw]
		plan, err := planFor(w, cfg.NativeBatch, fp, opts)
		if err != nil {
			errs[k] = err
			return
		}
		r, err := plan.Evaluate(cfg)
		if err != nil {
			errs[k] = err
			return
		}
		reports[k/nw][k%nw] = WorkloadResult{Name: w, Result: r}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return reports, nil
}

func shortName(ws []string) string {
	if len(ws) == 1 {
		return ws[0]
	}
	return fmt.Sprintf("multi%d", len(ws))
}

// EvaluateDesign simulates a fixed design across workloads with the given
// options (used by the Table 5/6 and Figure 9/10 harnesses). Compiled
// plans come from the process-wide cache shared with Study.Run, so
// re-evaluating a design after a search recompiles nothing; the
// per-workload evaluations (full exact-ILP fusion solves when opts asks
// for them) run concurrently, one worker per CPU.
func EvaluateDesign(cfg *arch.Config, workloads []string, opts sim.Options) ([]WorkloadResult, error) {
	reports, err := finalReport(0, []*arch.Config{cfg}, workloads, opts)
	if err != nil {
		return nil, err
	}
	return reports[0], nil
}

// GeoMean returns the geometric mean of f over the results.
func GeoMean(results []WorkloadResult, f func(*sim.Result) float64) float64 {
	if len(results) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range results {
		v := f(r.Result)
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(results)))
}
