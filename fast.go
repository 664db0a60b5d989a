// Package fast is the public API of the FAST reproduction: a full-stack
// accelerator search technique for domain-optimized deep learning
// inference accelerators (Zhang et al., ASPLOS 2022).
//
// The package re-exports the stable surface of the internal packages:
//
//   - workload graphs (BuildModel) and reference designs (TPUv3,
//     FASTLarge, FASTSmall),
//   - the architectural simulator (Simulate with Baseline/FAST software
//     stacks),
//   - the search framework (Study.Run) covering datapath, schedule, and
//     fusion co-optimization,
//   - the power/area and ROI models.
//
// # Searches
//
// A Study is executed with a context and functional options:
//
//	res, err := (&fast.Study{
//	    Workloads: []string{"efficientnet-b7"},
//	    Objective: fast.ObjectivePerfPerTDP,
//	    Algorithm: fast.AlgorithmLCS,
//	    Trials:    500,
//	    Seed:      1,
//	}).Run(ctx, fast.WithParallelism(8), fast.WithTranscript(onBatch))
//
// Candidate evaluations run on a bounded worker pool and are memoized
// by hyperparameter vector; the search trajectory is deterministic for
// a fixed seed at any parallelism. WithTranscript's callback observes
// every told batch in that deterministic order, so live progress and
// checkpoints hang off the same hook. Canceling the context stops the
// study promptly and returns the partial trial history.
//
// The optimizers underneath speak a batch ask/tell protocol
// (Optimizer, NewOptimizer) for callers that need custom evaluation
// loops — distributed workers, simulators other than Simulate, or
// early-stopping policies.
//
// # Multi-objective searches
//
// Setting Study.Objectives instead of Objective returns the whole
// Pareto front over several targets — the paper's trade-off curves
// (Perf/TDP under area and power budgets, Figure 12) from a single
// study:
//
//	res, err := (&fast.Study{
//	    Workloads:  []string{"efficientnet-b7"},
//	    Objectives: []fast.ObjectiveKind{fast.ObjectivePerfPerTDP, fast.ObjectiveArea},
//	    Trials:     500,
//	    Seed:       1,
//	}).Run(ctx)
//	for _, p := range res.Front() {
//	    fmt.Println(p.Values, p.Design)
//	}
//
// The default optimizer is NSGA-II (AlgorithmNSGA2); TDP and area are
// minimized, the performance metrics maximized, and every objective of
// a trial is scored from the same simulation, so extra objectives cost
// no additional plan evaluations. Scalar studies are the 1-objective
// special case and keep their exact trajectories.
//
// See example_test.go for walkthroughs whose output go test checks and
// cmd/fast-experiments for the paper's tables and figures.
package fast

import (
	"io"

	"fast/internal/arch"
	"fast/internal/core"
	"fast/internal/hlo"
	"fast/internal/models"
	"fast/internal/power"
	"fast/internal/roi"
	"fast/internal/search"
	"fast/internal/sim"
)

// Graph is an HLO-like workload graph.
type Graph = hlo.Graph

// Design is an accelerator datapath configuration (paper Table 3).
type Design = arch.Config

// SimOptions configures the simulator software stack.
type SimOptions = sim.Options

// SimResult is a full simulation outcome.
type SimResult = sim.Result

// Study is a FAST search experiment; StudyResult its outcome.
type Study = core.Study

// StudyResult is a completed search.
type StudyResult = core.StudyResult

// WorkloadResult pairs a workload name with its simulation.
type WorkloadResult = core.WorkloadResult

// PowerModel is the analytical area/TDP model.
type PowerModel = power.Model

// Budget is the search constraint envelope.
type Budget = power.Budget

// ROIParams is the return-on-investment model of §5.1.
type ROIParams = roi.Params

// ObjectiveKind is a Study optimization target.
type ObjectiveKind = core.ObjectiveKind

// Objective kinds for Study.
const (
	// ObjectivePerfPerTDP maximizes QPS per watt.
	ObjectivePerfPerTDP = core.PerfPerTDP
	// ObjectivePerf maximizes raw QPS within the budget.
	ObjectivePerf = core.Perf
	// ObjectiveTDP minimizes thermal design power (Study.Objectives
	// only).
	ObjectiveTDP = core.TDP
	// ObjectiveArea minimizes die area (Study.Objectives only).
	ObjectiveArea = core.Area
)

// ParseObjective resolves an objective name ("perf-per-tdp", "perf",
// "tdp", "area") to its kind.
func ParseObjective(name string) (ObjectiveKind, error) { return core.ParseObjective(name) }

// FrontPoint is one design on a multi-objective study's Pareto front
// (StudyResult.Front): its raw objective values in Study.Objectives
// order and its per-workload final simulations.
type FrontPoint = core.FrontPoint

// Search algorithms for Study (Figure 11 families, plus the
// multi-objective NSGA-II).
const (
	AlgorithmRandom   = search.AlgRandom
	AlgorithmLCS      = search.AlgLCS
	AlgorithmBayesian = search.AlgBayes
	AlgorithmNSGA2    = search.AlgNSGA2
)

// Algorithm names an optimizer family.
type Algorithm = search.Algorithm

// Trial is one evaluated candidate: its hyperparameter index vector,
// objective value, and feasibility.
type Trial = search.Trial

// SearchResult is a completed search: best trial plus full history
// (convergence curves, feasible rate).
type SearchResult = search.Result

// Optimizer is the batch ask/tell protocol the search families speak:
// Ask(n) proposes candidate index vectors, Tell reports evaluated
// trials back in ask order. Study.Run drives one internally; use
// NewOptimizer directly for custom evaluation loops.
type Optimizer = search.Optimizer

// NewOptimizer constructs a bare optimizer for custom ask/tell loops.
// budget is the expected total trial count (annealing/sizing hint);
// <= 0 selects family defaults.
func NewOptimizer(alg Algorithm, seed int64, budget int) Optimizer {
	return search.New(alg, seed, budget)
}

// Option configures one Study.Run invocation.
type Option = core.Option

// WithParallelism bounds concurrent design evaluations (n <= 0 uses one
// worker per CPU). The search trajectory is identical at any setting.
func WithParallelism(n int) Option { return core.WithParallelism(n) }

// WithBatchSize overrides the ask/tell batch width. Unlike parallelism
// this changes which designs the optimizer proposes.
func WithBatchSize(n int) Option { return core.WithBatchSize(n) }

// DispatchFunc interposes on a Run's batch evaluation — the remote
// worker-pool seam (see internal/dispatch). A dispatcher changes where
// evaluations execute, never what they return.
type DispatchFunc = core.DispatchFunc

// WithDispatch routes one Run's batch evaluation through f, keeping the
// in-process evaluator as the fallback. The transcript is bit-identical
// to an undispatched run at any worker count.
func WithDispatch(f DispatchFunc) Option { return core.WithDispatch(f) }

// Snapshot is a checkpoint of an optimizer's state: its constructor
// parameters plus the full ask/tell transcript. Optimizer state evolves
// only through that transcript, so the snapshot restores the search
// exactly (WithResume), and JSON round-trips it bit-exactly. The
// fast-serve daemon does not write Snapshots: it appends each told
// batch to a JSONL transcript and rebuilds a Snapshot from that file
// when it restarts or resumes a study.
type Snapshot = search.Snapshot

// WithTranscript registers the observer hook of one Study.Run: f
// observes every fully told ask batch, in transcript order, from the
// driving goroutine. It serves live progress reporting and
// checkpointing alike: feeding the batches to (*Snapshot).Append
// captures everything needed to resume the study with WithResume.
func WithTranscript(f func(batch []Trial)) Option { return core.WithTranscript(f) }

// WithResume warm-starts a Study.Run from a checkpoint: prior trials
// seed the memoization cache and count toward Study.Trials, and the
// merged result is bit-identical to an uninterrupted run. Set
// Study.Trials above the snapshot's count to warm-continue with more
// trials. The snapshot must match the study's algorithm and seed.
func WithResume(snap Snapshot) Option { return core.WithResume(snap) }

// BuildModel constructs a workload graph by canonical name (e.g.
// "efficientnet-b7", "bert-1024", "resnet50", "ocr-rpn",
// "ocr-recognizer") at the given batch size.
func BuildModel(name string, batch int64) (*Graph, error) { return models.Build(name, batch) }

// ModelNames lists every canonical workload name.
func ModelNames() []string { return models.Names() }

// FullSuite returns the paper's complete benchmark list.
func FullSuite() []string { return models.FullSuite() }

// MultiWorkloadSuite returns the 5-workload multi-workload set.
func MultiWorkloadSuite() []string { return models.MultiWorkloadSuite() }

// TPUv3 returns the modeled TPU-v3 baseline design.
func TPUv3() *Design { return arch.TPUv3() }

// DieShrunkTPUv3 returns the TPU-v3 datapath on the sub-10nm process (the
// paper's Perf/TDP baseline).
func DieShrunkTPUv3() *Design { return arch.DieShrunkTPUv3() }

// FASTLarge returns the Table 5 FAST-Large design.
func FASTLarge() *Design { return arch.FASTLarge() }

// FASTSmall returns the Table 5 FAST-Small design.
func FASTSmall() *Design { return arch.FASTSmall() }

// FASTDecode returns the decode-tuned reference design (maximum Global
// Memory for KV-cache residency, native batch 1).
func FASTDecode() *Design { return arch.FASTDecode() }

// DesignByName resolves a named reference design (nil if unknown).
func DesignByName(name string) *Design { return arch.ByName(name) }

// LoadDesign reads and validates a design from a JSON file (the format
// fast-search -save writes).
func LoadDesign(path string) (*Design, error) { return arch.LoadFile(path) }

// BaselineOptions models the production TPU-v3 software stack (XLA
// fusion regions, classic schedules, no FAST fusion).
func BaselineOptions() SimOptions { return sim.BaselineOptions() }

// FASTOptions is the full FAST software stack (all mapping schemes, FAST
// fusion, automatic softmax selection).
func FASTOptions() SimOptions { return sim.FASTOptions() }

// Plan is a compiled simulation: every design-independent analysis of a
// (workload, options) pair — fusion-region partitioning, per-op
// shape/FLOPs/cost tables, fusion-candidate enumeration — done once by
// Compile. Plan.Evaluate then scores a candidate design running only the
// design-dependent work (schedule mapping, fusion placement, roll-up);
// the mappings and the fusion placement are memoized per design, so
// scoring a design again on the same plan repeats only the roll-up.
// Plan.EvaluateBatch scores many designs at once (bit-identical to
// per-design Evaluate, results in input order). Plans are safe for
// concurrent Evaluate/EvaluateBatch calls, so many search workers can
// share one.
type Plan = sim.Plan

// Compile precomputes a simulation plan for graph g under opts.
// Simulate(g, d, opts) ≡ Compile(g, opts).Evaluate(d), bit for bit; use
// Compile when evaluating one workload against many designs.
func Compile(g *Graph, opts SimOptions) (*Plan, error) {
	return sim.Compile(g, opts)
}

// Simulate runs the architectural simulator for a graph the caller
// built (say, with BuildModel at a batch of its choosing) on a design.
// It is a thin Compile+Evaluate wrapper that compiles afresh on every
// call; to simulate a named workload use EvaluateDesign, which shares
// graphs and compiled plans with Study.Run via process-wide caches keyed
// by (workload, batch, options fingerprint).
func Simulate(g *Graph, d *Design, opts SimOptions) (*SimResult, error) {
	return sim.Simulate(g, d, opts)
}

// EvaluateDesign simulates a fixed design across several workloads.
func EvaluateDesign(d *Design, workloads []string, opts SimOptions) ([]WorkloadResult, error) {
	return core.EvaluateDesign(d, workloads, opts)
}

// DefaultPowerModel returns the calibrated sub-10nm power/area model.
func DefaultPowerModel() *PowerModel { return power.Default() }

// DefaultBudget returns the search constraint envelope anchored to the
// die-shrunk TPU-v3 (Table 5 normalization).
func DefaultBudget() Budget { return power.DefaultBudget(power.Default()) }

// DefaultROI returns the §5.1 ROI constants.
func DefaultROI() ROIParams { return roi.Default() }

// EnergyCoeffs are the per-event dynamic-energy constants of the energy
// model (Joules-per-inference reporting, beyond the paper's TDP metric).
type EnergyCoeffs = power.EnergyCoeffs

// DefaultEnergyCoeffs returns the calibrated sub-10nm energy constants.
func DefaultEnergyCoeffs() EnergyCoeffs { return power.DefaultEnergy() }

// WriteGraphDOT renders a workload graph in Graphviz DOT format,
// clustered by XLA fusion region (pipe into `dot -Tsvg`).
func WriteGraphDOT(w io.Writer, g *Graph) error {
	return hlo.WriteDOT(w, g, hlo.PartitionXLA(g))
}

// GeoMean folds per-workload results with the geometric mean of f.
func GeoMean(results []WorkloadResult, f func(*SimResult) float64) float64 {
	return core.GeoMean(results, f)
}
