// Package sim is the architectural simulator: it maps an HLO graph onto a
// datapath configuration and reports execution time, throughput,
// utilization, operational intensity, memory stalls, and Perf/TDP.
//
// Per §6.1, the pipeline per fusion region is: tensor-padding pre-pass →
// schedule mapping (internal/mapping, the Timeloop equivalent) for matrix
// ops and VPU cost models for everything else → FAST fusion ILP over the
// per-region statistics → final roofline-with-overlap timing. Designs
// with any unmappable op are invalid (ScheduleFailures = 0 constraint).
package sim

import (
	"fmt"

	"fast/internal/arch"
	"fast/internal/fusion"
	"fast/internal/hlo"
	"fast/internal/mapping"
	"fast/internal/power"
	"fast/internal/vpu"
)

// Options configures a simulation.
type Options struct {
	// TwoPassSoftmax enables the §5.6 algorithm (searched as a FAST
	// hyperparameter). AutoSoftmax lets the simulator pick the faster
	// variant per graph.
	TwoPassSoftmax bool
	AutoSoftmax    bool
	// Fusion configures the FAST fusion pass (Disable for ablations).
	Fusion fusion.Options
	// Mapping configures the schedule mapper.
	Mapping mapping.Options
	// WholeTensorFusion reproduces the paper's conservative Fig. 8
	// assumption that entire tensors occupy Global Memory while resident
	// (§5.5). Default false: the scheduler applies inter-op blocking, so
	// an edge's residency is its per-sample slice.
	WholeTensorFusion bool
	// DepthwiseOnVPU models the production XLA-TPU lowering of depthwise
	// convolutions to the vector unit instead of the systolic array (the
	// baseline behaviour §3.2 describes as mapping poorly; FAST's
	// schedule search replaces it with the 1-D systolic mapping). The
	// 0.20 efficiency derating reproduces the effective ~1.1% of chip
	// peak that Table 2's FLOP/runtime shares imply for TPU-v3.
	DepthwiseOnVPU bool
	// PowerModel overrides the default power/area model.
	PowerModel *power.Model
}

// OpShare records one op's intrinsic (pre-overlap) cost inside its
// region, used to attribute region time to ops for per-op reports.
type OpShare struct {
	Op *hlo.Op
	// IntrinsicSec is the op's standalone compute time plus its share of
	// algorithm-mandated DRAM time.
	IntrinsicSec float64
}

// RegionStats carries per-region simulation results.
type RegionStats struct {
	Region     *hlo.Region
	ComputeSec float64
	Shares     []OpShare
	// ExtraBytes is mapper re-read + softmax-pass traffic beyond the
	// boundary tensors.
	ExtraBytes int64
	// DRAMBytesPre is the region's DRAM traffic before FAST fusion
	// (boundary tensors + weights + mapper re-read floor + softmax
	// passes).
	DRAMBytesPre int64
	// DRAMBytesPost is the traffic after fusion placements.
	DRAMBytesPost int64
	// KVBytes is the persistent KV-cache traffic the region reads per
	// decode step (zero for encoder workloads). Included in
	// DRAMBytesPre; removed from DRAMBytesPost when the fusion solution
	// holds the cache slab in Global Memory (Fusion.KVOnChip).
	KVBytes int64
	// SecPre/SecPost are the region times before/after fusion.
	SecPre, SecPost float64
	FLOPs           int64
}

// Result is a full simulation outcome.
type Result struct {
	Graph  *hlo.Graph
	Config *arch.Config

	Regions []RegionStats
	Fusion  fusion.Solution

	// LatencySec is the time for one batch through one core.
	LatencySec float64
	// QPS is aggregate inferences/s across cores.
	QPS float64
	// Utilization is model FLOPs / (latency × per-core peak FLOPs).
	Utilization float64
	// OpIntensityPre/Post are FLOPs per DRAM byte before/after fusion.
	OpIntensityPre, OpIntensityPost float64
	// MemStallPre/Post are the fractions of execution time stalled on
	// DRAM (§6.2.5 "Pre-fusion Mem Stall %").
	MemStallPre, MemStallPost float64
	// FusionEfficiency is the fraction of pre-fusion stall time removed
	// by fusion (Table 5 "Fusion Efficiency").
	FusionEfficiency float64

	// TDPWatts and AreaMM2 come from the analytical power model.
	TDPWatts float64
	AreaMM2  float64
	// PerfPerTDP is QPS per watt.
	PerfPerTDP float64

	// ScheduleFailed marks an invalid design (Eq. 5); FailReason explains.
	ScheduleFailed bool
	FailReason     string

	// SoftmaxAlgorithm records the variant used.
	SoftmaxAlgorithm vpu.SoftmaxAlgorithm
}

// BaselineOptions models the production TPU-v3 software stack the paper
// baselines against: XLA fusion regions but no FAST fusion, and only the
// classic weight-/output-stationary mapping schemes (no 1-D convolution
// column streaming — the schedule improvement FAST's Timeloop search
// discovers, Figure 15's "scheduling" component).
func BaselineOptions() Options {
	return Options{
		Fusion: fusion.Options{Disable: true},
		Mapping: mapping.Options{
			Schemes: []mapping.Scheme{mapping.WeightStationary, mapping.OutputStationary},
		},
		DepthwiseOnVPU: true,
	}
}

// FASTOptions is the full FAST software stack: all mapping schemes,
// fusion with a greedy-incumbent solve (suitable inside search loops),
// and automatic softmax-algorithm selection.
func FASTOptions() Options {
	return Options{
		AutoSoftmax: true,
		Fusion:      fusion.Options{GreedyOnly: true},
	}
}

// Fingerprint returns a deterministic key covering every Options field
// that can change simulation results, for caching compiled Plans by
// (workload, options) pair. The power model is rendered by value, so two
// equal models — including two separate power.Default() pointers — share
// a fingerprint.
func (o Options) Fingerprint() string {
	// Evaluate treats a nil PowerModel as power.Default(), so the key
	// must too: a study that pins the default model explicitly and a
	// caller passing nil share one compiled plan.
	pmv := o.PowerModel
	if pmv == nil {
		pmv = power.Default()
	}
	pm := fmt.Sprintf("%+v", *pmv)
	// Schemes must distinguish nil (all schemes) from a non-nil empty
	// slice (no schemes: every matrix op fails to schedule); %v renders
	// both as "[]".
	schemes := "all"
	if o.Mapping.Schemes != nil {
		schemes = fmt.Sprintf("%v", o.Mapping.Schemes)
	}
	// Only the exact solve reads the node budget: greedy and disabled
	// plans under different budgets are one plan.
	fus := o.Fusion
	if fus.GreedyOnly || fus.Disable {
		fus.MaxNodes = 0
	}
	return fmt.Sprintf("sm2p=%t auto=%t fus=%+v schemes=%s wtf=%t dwvpu=%t pm=%s",
		o.TwoPassSoftmax, o.AutoSoftmax, fus, schemes,
		o.WholeTensorFusion, o.DepthwiseOnVPU, pm)
}

// Simulate runs the full pipeline for graph g (built at any batch; it is
// rebatched to cfg.NativeBatch by the caller when desired) on cfg.
//
// It is a thin Compile+Evaluate wrapper (see plan.go) for a graph the
// caller builds (fast-sim -batch, tests). Workloads named by the model
// registry go through core.EvaluateDesign instead, whose process-wide
// caches build each graph and compile each plan once.
func Simulate(g *hlo.Graph, cfg *arch.Config, opts Options) (*Result, error) {
	// Check cfg before paying for Compile (and to keep the historical
	// cfg-before-graph error precedence); Evaluate re-validates for
	// direct Plan callers, which costs only a few field checks.
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	plan, err := Compile(g, opts)
	if err != nil {
		return nil, err
	}
	return plan.Evaluate(cfg)
}

// isSerialVec reports whether the op must wait for its full input before
// producing output (softmax needs the row max, layernorm the moments), so
// it cannot overlap with its producer's systolic streaming. Accumulating
// reductions (pooling, sums) stream with their producer and stay in the
// overlappable bucket.
func isSerialVec(k hlo.Kind) bool {
	return k == hlo.KSoftmax || k == hlo.KLayerNorm
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
