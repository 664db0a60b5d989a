package sim

// Compiled simulation plans.
//
// Every FAST search trial simulates the same (workload, options) pair on
// a different candidate datapath, but most of the simulator pipeline —
// graph traversal, fusion-region partitioning, per-op shape/FLOPs/byte
// analysis, fusion-candidate enumeration, softmax-variant pre-analysis —
// depends only on the workload and the software-stack options, never on
// the design. Compile hoists all of that out of the per-trial loop into
// an immutable Plan; Plan.Evaluate runs only the design-dependent part
// (schedule mapping, fusion placement, latency/power roll-up) with flat
// slices keyed by dense op/region/problem index and no map allocations.
//
// Simulate(g, cfg, opts) ≡ Compile(g, opts).Evaluate(cfg) bit-for-bit:
// the evaluate path performs the identical arithmetic in the identical
// order as the pre-split simulator (a differential property test in
// plan_test.go enforces this across every registry model, reference
// design, and option set).

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"fast/internal/arch"
	"fast/internal/fusion"
	"fast/internal/hlo"
	"fast/internal/mapping"
	"fast/internal/power"
	"fast/internal/vpu"
)

// evalCount counts design evaluations process-wide: every Evaluate call
// and every design of an EvaluateBatch or ScoreBatch adds one, whether
// its Score was memoized or not. Tests use the delta to assert
// evaluation budgets (e.g. that a multi-objective study costs one
// evaluation per design, not one per objective); the single relaxed
// atomic add is noise next to the ~µs evaluate itself.
var evalCount atomic.Int64

// EvalCount returns the process-wide count of designs evaluated or scored.
func EvalCount() int64 { return evalCount.Load() }

// dwVPUEff derates VPU throughput for windowed depthwise access under
// the production lowering (see Options.DepthwiseOnVPU).
const dwVPUEff = 0.20

// opClass tells Evaluate which cost path an op takes; decided at compile
// time because it depends only on the op kind and the options.
type opClass uint8

const (
	// classVector ops run on the VPUs with precomputed per-variant costs.
	classVector opClass = iota
	// classMatrix ops run through the schedule mapper (problems table).
	classMatrix
	// classDWVPU is a depthwise conv lowered to the VPU (DepthwiseOnVPU).
	classDWVPU
)

// planOp is the design-independent record for one costed op.
type planOp struct {
	op    *hlo.Op
	class opClass
	// serial marks full reductions that cannot overlap systolic streaming.
	serial bool
	// overlappable marks ops whose time attribution is rescaled when
	// matrix and vector phases overlap.
	overlappable bool
	// problem indexes Plan.problems for classMatrix ops (-1 otherwise).
	problem int
	// gateOps is the LSTM gate VPU work accompanying the cell's matmul.
	gateOps float64
	// dwOps is the pre-derated VPU op count for classDWVPU.
	dwOps float64
	// softmaxBytes2 is 2× the output tensor size for softmax ops (the
	// on-chip residency threshold); 0 means the op always "fits".
	softmaxBytes2 int64
	// cost holds the VPU cost for classVector ops, indexed by
	// [softmax algorithm][fits-on-chip 0/1]. Non-softmax ops store the
	// same cost in all four slots.
	cost [2][2]vpu.Cost
}

// planRegion is the design-independent record for one fusion region.
type planRegion struct {
	region *hlo.Region
	// lo/hi bound the region's ops in Plan.ops.
	lo, hi int
	io     hlo.RegionIO
	// Primary-edge candidate for FAST fusion (see Partition.PrimaryEdge).
	edgeProducer int
	edgeBytes    int64
	edgeSole     bool
	// resident is the edge tensor's peak GM residency after inter-op
	// blocking (per-sample slice unless WholeTensorFusion).
	resident int64
}

// Plan is a compiled simulation: every design-independent analysis of one
// (workload graph, Options) pair, ready to be evaluated against any
// number of candidate datapaths. The compiled data is immutable after
// Compile; the design memo (see memo.go) is internally synchronized, so
// a Plan is safe for concurrent Evaluate/EvaluateBatch calls from many
// goroutines.
type Plan struct {
	graph *hlo.Graph
	opts  Options
	part  *hlo.Partition

	regions []planRegion
	ops     []planOp
	// problems are the unique matrix problems in first-appearance order;
	// compulsory[i] is problems[i]'s compulsory DRAM byte count (the
	// design-independent term of the mapper's traffic floor).
	problems   []mapping.Problem
	compulsory []int64
	// usable is the fusion residency-window pre-analysis (shared
	// read-only by every Evaluate).
	usable []bool
	// hasSoftmax is the softmax-selection pre-analysis: the two §5.6
	// softmax variants produce identical results on a graph with no
	// softmax op, and the tie resolves to three-pass, so AutoSoftmax
	// evaluation can skip the second pass entirely.
	hasSoftmax bool

	// pm is the resolved power model (opts.PowerModel or power.Default),
	// hoisted out of the per-trial roll-up.
	pm *power.Model

	// scores memoizes each scored design's Score, latencies each timed
	// timing key's latency and fusions, on a plan whose fusion is an
	// exact solve, each timing key's fusion assignments (memo.go).
	scores    memo[designKey, Score]
	latencies memo[timingKey, float64]
	fusions   memo[timingKey, *fusionEntry]
}

// SizeBytes estimates the plan's resident size: the immutable
// design-independent tables Compile builds (regions, per-op cost
// records, unique mapping problems, fusion pre-analysis), reported by
// the benchmark harness as sim.plan_bytes. Two resident costs are
// deliberately excluded: the workload graph, which is owned by the
// process-wide graph cache and shared across plans (counting it here
// would double-charge every plan of the same workload), and the memo,
// which grows with use but is bounded per plan by its shard capacity
// (memoShards × memoShardCap keys per level): at most 4,096 Scores,
// about 0.6 MiB with map overhead, 4,096 latencies by timing key,
// about 0.2 MiB, and on an exact plan 4,096 fusion entries of about
// 0.35 KB plus 3 B per region and softmax variant.
func (p *Plan) SizeBytes() int64 {
	size := int64(unsafe.Sizeof(*p))
	size += int64(len(p.regions)) * int64(unsafe.Sizeof(planRegion{}))
	size += int64(len(p.ops)) * int64(unsafe.Sizeof(planOp{}))
	size += int64(len(p.problems)) * int64(unsafe.Sizeof(mapping.Problem{}))
	size += int64(len(p.compulsory)) * 8
	size += int64(len(p.usable))
	return size
}

// Compile runs every design-independent analysis for graph g under opts:
// fusion-region partitioning, per-region I/O and primary-edge
// enumeration, per-op cost pre-analysis (both softmax variants, both
// residency outcomes), unique-matrix-problem deduplication, and the
// fusion residency-window candidate set. The returned Plan evaluates any
// datapath with Plan.Evaluate; Simulate is Compile+Evaluate.
func Compile(g *hlo.Graph, opts Options) (*Plan, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{graph: g, opts: opts}
	p.pm = opts.PowerModel
	if p.pm == nil {
		p.pm = power.Default()
	}
	p.part = hlo.PartitionXLA(g)

	nb := g.NativeBatch()
	probIdx := make(map[mapping.Problem]int)
	p.regions = make([]planRegion, 0, len(p.part.Regions))
	for _, r := range p.part.Regions {
		pr := planRegion{region: r, lo: len(p.ops), io: p.part.IO(r)}
		for _, op := range r.Ops {
			po := planOp{op: op, problem: -1}
			if opts.DepthwiseOnVPU && op.Kind == hlo.KDepthwiseConv2D {
				po.class = classDWVPU
				macs := float64(hlo.FLOPs(op)) / 2
				po.dwOps = macs / dwVPUEff
			} else if prob, ok := mapping.FromOp(op); ok {
				po.class = classMatrix
				pi, seen := probIdx[prob]
				if !seen {
					pi = len(p.problems)
					probIdx[prob] = pi
					p.problems = append(p.problems, prob)
					p.compulsory = append(p.compulsory,
						prob.ActivationBytes()+prob.StationaryBytes()+prob.OutputBytes())
				}
				po.problem = pi
				if op.Kind == hlo.KLSTMCell {
					po.gateOps = vpu.LSTMGateOps(op)
				}
			} else {
				po.class = classVector
				po.serial = isSerialVec(op.Kind)
				if op.Kind == hlo.KSoftmax {
					po.softmaxBytes2 = op.Output.Bytes() * 2
					p.hasSoftmax = true
				}
				for ai, alg := range [2]vpu.SoftmaxAlgorithm{vpu.ThreePass, vpu.TwoPass} {
					for fi, fits := range [2]bool{false, true} {
						po.cost[ai][fi] = vpu.OpCost(op, alg, fits)
					}
				}
			}
			po.overlappable = !op.Kind.IsMatrix() && !isSerialVec(op.Kind)
			p.ops = append(p.ops, po)
		}
		pr.hi = len(p.ops)
		pr.edgeProducer, pr.edgeBytes, pr.edgeSole = p.part.PrimaryEdge(r)
		// Inter-op blocking: adjacent regions stream the edge tensor one
		// batch sample at a time, so GM residency is the per-sample slice.
		pr.resident = pr.edgeBytes
		if nb > 1 && pr.edgeBytes > 0 && !opts.WholeTensorFusion {
			pr.resident = pr.edgeBytes / nb
		}
		p.regions = append(p.regions, pr)
	}

	producers := make([]int, len(p.regions))
	for i := range p.regions {
		producers[i] = p.regions[i].edgeProducer
	}
	p.usable = fusion.UsableEdges(producers)
	return p, nil
}

// Evaluate runs the design-dependent half of the simulation: schedule
// mapping over the plan's unique matrix problems, fusion placement among
// the precompiled candidates, and the latency/power roll-up. On a plan
// whose fusion is an exact solve the fusion assignment is memoized per
// timing key (memo.go), so evaluating a design again, or one with the
// same timing, skips the solve. It is
// safe to call concurrently on one shared Plan, and produces
// bit-identical Results to Simulate(g, cfg, opts) for the graph and
// options the plan was compiled from.
func (p *Plan) Evaluate(cfg *arch.Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	evalCount.Add(1)
	return p.evaluateValidated(cfg, nil), nil
}

// exactFusion reports whether the plan's fusion placement is the exact
// solve (final reports), not the greedy or none.
func (p *Plan) exactFusion() bool {
	return !p.opts.Fusion.GreedyOnly && !p.opts.Fusion.Disable
}

// evaluateValidated maps cfg's matrix problems and, on an exact plan,
// fetches its timing key's fusion entry, then evaluates it
// (evaluateMapped). bufs, when non-nil, holds the memory the Results
// are written into (see ScoreBatch); nil allocates them.
func (p *Plan) evaluateValidated(cfg *arch.Config, bufs *scoreBufs) *Result {
	scratch := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(scratch)
	t := timingOf(cfg)
	mapped := scratch.mappings(p, cfg)
	var e *fusionEntry
	if k, ok := t.key(mapped); ok {
		e = p.fusionEntry(k)
	}
	return p.evaluateMapped(cfg, &t, mapped, e, bufs)
}

// evaluateMapped runs the softmax-variant selection over cfg's timing t,
// its mappings and its fusion entry e (nil: solve each assignment
// afresh): the mapper never depends on the softmax algorithm.
func (p *Plan) evaluateMapped(cfg *arch.Config, t *timing, mapped []mapping.Mapping, e *fusionEntry, bufs *scoreBufs) *Result {
	if p.opts.AutoSoftmax {
		var a, b *Result
		if !p.hasSoftmax {
			// No softmax op: the two-pass variant would produce the
			// identical timeline, and the a/b tie resolves to a.
			return p.evaluate(cfg, t, vpu.ThreePass, mapped, e, bufs)
		}
		if !p.exactFusion() {
			// Search-loop stack: the two variant evaluations are a few
			// microseconds each, not worth a goroutine.
			a = p.evaluate(cfg, t, vpu.ThreePass, mapped, e, bufs)
			b = p.evaluate(cfg, t, vpu.TwoPass, mapped, e, bufs)
		} else {
			// Full-ILP stack: each variant's fusion assignment is an exact
			// branch-and-bound solve (they differ in vector times and DRAM
			// extras, hence in their cost tables), so the two instances run
			// concurrently, each filling its own slot of the entry. Selection below is unchanged
			// and order-independent, so the result is bit-identical to the
			// serial path.
			done := make(chan struct{})
			go func() {
				defer close(done)
				b = p.evaluate(cfg, t, vpu.TwoPass, mapped, e, bufs)
			}()
			a = p.evaluate(cfg, t, vpu.ThreePass, mapped, e, bufs)
			<-done
		}
		if !b.ScheduleFailed && (a.ScheduleFailed || b.LatencySec < a.LatencySec) {
			return b
		}
		return a
	}
	alg := vpu.ThreePass
	if p.opts.TwoPassSoftmax {
		alg = vpu.TwoPass
	}
	return p.evaluate(cfg, t, alg, mapped, e, bufs)
}

// evaluate is the per-design hot path. It mirrors the pre-split
// simulate() arithmetic exactly — same operations, same order — reading
// every design-independent quantity from the plan's flat tables, the
// design's timing from t, its schedule mappings from mapped and, on an
// exact plan, its fusion assignment from its memo entry e (nil: solve
// it here). Its latency reads nothing else of the design, which is what
// lets designs with one timing key share it (memo.go). The Result and
// its tables are fresh when bufs is nil, and otherwise bufs' slot for
// alg, overwritten.
func (p *Plan) evaluate(cfg *arch.Config, t *timing, alg vpu.SoftmaxAlgorithm, mapped []mapping.Mapping, e *fusionEntry, bufs *scoreBufs) *Result {
	g := p.graph

	perCoreBW, clock, vpuPeak := t.perCoreBW, t.clock, t.vpuPeak
	capBytes, gm := t.capBytes, t.gm

	algIdx := 0
	if alg == vpu.TwoPass {
		algIdx = 1
	}
	var buf *resultBuf
	if bufs != nil {
		buf = &bufs[algIdx]
	}
	// One backing array serves every region's op shares (subslices of a
	// single allocation, or of the buffer's).
	res, sol, stats, shareBacking := buf.result(len(p.regions), len(p.ops))
	res.Graph, res.Config, res.SoftmaxAlgorithm = g, cfg, alg

	scratch := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(scratch)
	costs := scratch.regionCosts(len(p.regions))
	extras := scratch.trafficExtras(p, capBytes)
	var totalFLOPs, matrixFLOPs int64

	for ri := range p.regions {
		pr := &p.regions[ri]
		io := pr.io
		// Matrix ops stream through the systolic arrays while the VPUs
		// post-process elementwise results in the same region, so those
		// phases overlap: compute = max(matrix, elementwise) + serial,
		// where full reductions (softmax, layernorm, global pooling)
		// cannot start until their producer finishes and are serialized.
		var matrixSec, vectorSec, serialSec float64
		var extraBytes int64
		pinnable := true
		shares := shareBacking[pr.lo:pr.lo:pr.hi]

		for oi := pr.lo; oi < pr.hi; oi++ {
			po := &p.ops[oi]
			var opSec float64
			var opExtra int64
			switch po.class {
			case classDWVPU:
				opSec = vpu.Time(po.dwOps, vpuPeak)
				vectorSec += opSec
			case classMatrix:
				pi := po.problem
				m := &mapped[pi]
				if m.Failed {
					res.ScheduleFailed = true
					res.FailReason = fmt.Sprintf("op %q: %s", po.op.Name, m.Reason)
					return res
				}
				opSec = m.Cycles / clock
				opExtra = extras[pi]
				if !p.problems[pi].WeightsStationary {
					pinnable = false
				}
				matrixSec += opSec
				if po.gateOps > 0 {
					gates := vpu.Time(po.gateOps, vpuPeak)
					vectorSec += gates
					opSec += gates
				}
			default:
				fi := 1
				if po.softmaxBytes2 > capBytes {
					// A standalone softmax kernel round-trips its whole
					// tensor per pass unless the tensor itself stays on
					// chip between passes.
					fi = 0
				}
				c := po.cost[algIdx][fi]
				opSec = vpu.Time(c.VectorOps, vpuPeak)
				opExtra = c.ExtraDRAMBytes
				if po.serial {
					serialSec += opSec
				} else {
					vectorSec += opSec
				}
			}
			extraBytes += opExtra
			shares = append(shares, OpShare{Op: po.op, IntrinsicSec: opSec + float64(opExtra)/perCoreBW})
		}
		computeSec := maxf(matrixSec, vectorSec) + serialSec
		// Attribute overlapped elementwise time at its residual share so
		// per-op reports match what the timeline charges.
		if matrixSec > 0 && vectorSec > 0 {
			factor := 0.0
			if vectorSec > matrixSec {
				factor = (vectorSec - matrixSec) / vectorSec
			}
			for si := range shares {
				if p.ops[pr.lo+si].overlappable {
					shares[si].IntrinsicSec *= factor
				}
			}
		}
		if io.WeightBytes == 0 {
			pinnable = false
		}

		dramPre := io.InputBytes + io.OutputBytes + io.WeightBytes + io.KVBytes + extraBytes
		tMax := maxf(computeSec, float64(dramPre)/perCoreBW)
		// With every boundary tensor on chip the activation re-read
		// extras disappear too; the floor is pure compute.
		tMin := computeSec

		// Both tables are filled field by field: a composite literal
		// would be built on the stack and block-copied, once per region
		// per design. costs arrives zeroed; every stats field is set.
		c := &costs[ri]
		c.TMin, c.TMax = tMin, tMax
		c.TWeight = float64(io.WeightBytes) / perCoreBW
		c.DWeight, c.PinnableWeights = io.WeightBytes, pinnable
		c.EdgeProducer, c.EdgeBytes, c.EdgeResidentBytes = pr.edgeProducer, pr.edgeBytes, pr.resident
		// The consumer-side read saving carries the mapper/softmax extras
		// (they are re-reads of the same activations).
		c.TEdgeRead = float64(pr.edgeBytes+extraBytes) / perCoreBW
		if pr.edgeSole {
			// The producer's DRAM write is saved too when this region is
			// the tensor's only external consumer.
			c.TEdgeWrite = float64(pr.edgeBytes) / perCoreBW
		}
		if io.KVBytes > 0 && io.KVBytes <= gm {
			// The region's KV-cache slab fits in Global Memory: offer it to
			// the residency solver as a pin-like hold candidate.
			c.KVBytes = io.KVBytes
			c.TKVRead = float64(io.KVBytes) / perCoreBW
		}
		st := &stats[ri]
		st.Region, st.ComputeSec, st.Shares = pr.region, computeSec, shares
		st.ExtraBytes, st.DRAMBytesPre, st.DRAMBytesPost = extraBytes, dramPre, 0
		st.KVBytes, st.SecPre, st.SecPost, st.FLOPs = io.KVBytes, tMax, 0, io.FLOPs
		totalFLOPs += io.FLOPs
		matrixFLOPs += io.MatrixFLOPs
	}

	fusion.ResolvePlanned(sol, costs, gm, e.assignment(p, gm, algIdx, costs, &scratch.asn))
	res.Fusion = *sol

	// Post-fusion DRAM traffic per region.
	for ri := range stats {
		b := stats[ri].DRAMBytesPre
		if sol.PinWeight[ri] {
			b -= costs[ri].DWeight
		}
		if sol.EdgeOnChip[ri] {
			b -= costs[ri].EdgeBytes + stats[ri].ExtraBytes
			if costs[ri].TEdgeWrite > 0 {
				pp := costs[ri].EdgeProducer
				stats[pp].DRAMBytesPost -= costs[ri].EdgeBytes
			}
		}
		if sol.KVOnChip != nil && sol.KVOnChip[ri] {
			b -= costs[ri].KVBytes
		}
		stats[ri].DRAMBytesPost += b
	}
	var latency, preLatency, computeTotal float64
	var bytesPre, bytesPost int64
	for ri := range stats {
		if stats[ri].DRAMBytesPost < 0 {
			stats[ri].DRAMBytesPost = 0
		}
		post := sol.Times[ri]
		stats[ri].SecPost = post
		latency += post
		preLatency += stats[ri].SecPre
		computeTotal += stats[ri].ComputeSec
		bytesPre += stats[ri].DRAMBytesPre
		bytesPost += stats[ri].DRAMBytesPost
	}
	res.Regions = stats
	res.LatencySec = latency
	res.QPS, res.TDPWatts, res.AreaMM2, res.PerfPerTDP = p.rates(cfg, latency)
	if latency > 0 {
		// Fraction of peak FLOPS, measured against the systolic arrays
		// (the paper's metric): vector-unit work is excluded so the ratio
		// is bounded by 1 on any datapath.
		res.Utilization = float64(matrixFLOPs) / (latency * cfg.PeakFLOPs() / float64(cfg.Cores))
	}
	if bytesPre > 0 {
		res.OpIntensityPre = float64(totalFLOPs) / float64(bytesPre)
	}
	if bytesPost > 0 {
		res.OpIntensityPost = float64(totalFLOPs) / float64(bytesPost)
	}
	if preLatency > 0 {
		res.MemStallPre = (preLatency - computeTotal) / preLatency
	}
	if latency > 0 {
		res.MemStallPost = (latency - computeTotal) / latency
	}
	if stall := preLatency - computeTotal; stall > 0 {
		res.FusionEfficiency = (preLatency - latency) / stall
	}
	return res
}

// rates returns cfg's throughput at latency and its power-model
// figures: QPS, TDP, area and Perf/TDP. evaluate and a timing-memo hit
// (Plan.score) both take them from here.
func (p *Plan) rates(cfg *arch.Config, latency float64) (qps, tdp, area, perfPerTDP float64) {
	if latency > 0 {
		qps = float64(cfg.Cores) * float64(p.graph.NativeBatch()) / latency
	}
	eval := p.pm.Evaluate(cfg)
	tdp, area = eval.TotalPower(), eval.TotalArea()
	if tdp > 0 {
		perfPerTDP = qps / tdp
	}
	return qps, tdp, area, perfPerTDP
}
