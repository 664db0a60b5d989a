// Package fusion implements FAST fusion (§5.5, Figure 8): a secondary
// pass over XLA-style fusion regions that decides which activation edges
// and weight tensors to place in leftover Global Memory, minimizing total
// execution time under the GM capacity constraint.
//
// The Figure 8 ILP is built faithfully and solved with internal/ilp
// (branch-and-bound under a node budget, returning the incumbent when it
// runs out — the paper's SCIP timeout contract, counted in nodes — or
// once the incumbent stalls). A density-greedy warm start with
// saturation handling seeds the incumbent, so even a one-node budget
// yields a sound, feasible solution.
//
// Two adaptations of the Fig. 8 formulation:
//
//  1. The big-M adjacency constraint forces p_I(i)=0 unless region i
//     executes immediately after its producer, and the fan-out
//     constraints tie p_O(producer)=p_I(consumer); the free binaries are
//     therefore one weight-pinning decision per region plus one
//     edge-residency decision per producer→consumer pair, which is the
//     form solved here.
//  2. The paper's input graphs are pre-fused blobs (footnote 1) in which
//     a whole MBConv block, including its squeeze-excite detour, is
//     near-chain-like. Our XLA regions are finer, so strict order
//     adjacency would forbid keeping the dominant dwconv→excite tensors
//     on chip. Adjacency is therefore generalized to "within W regions"
//     (W=1 would be the paper's constraint; W=4 spans an SE detour,
//     and on efficientnet-b7/FAST-Large doubles throughput over W=1),
//     with the tensor charged against GM capacity for every region it
//     stays resident across.
package fusion

import (
	"math"
	"sync"
)

// residencyWindow is the residency window W (see package comment).
const residencyWindow = 4

// RegionCost is the simulator-provided timing/size data for one fusion
// region (one vertex of Fig. 8's graph), in execution order.
type RegionCost struct {
	// TMin is the region's execution time with all tensors on chip
	// (compute-bound floor), seconds.
	TMin float64
	// TMax is the execution time with inputs, outputs and weights all
	// streamed from DRAM.
	TMax float64
	// TWeight is the DRAM-time saving from pinning this region's weights
	// in Global Memory; DWeight is their size.
	TWeight float64
	DWeight int64
	// PinnableWeights is false for regions whose "stationary" operand is
	// itself an activation (attention scores) — nothing to pin.
	PinnableWeights bool

	// EdgeProducer is the region producing this region's primary external
	// activation input (-1 for none); EdgeBytes is that tensor's size.
	EdgeProducer int
	EdgeBytes    int64
	// KVBytes is the persistent key/value-cache bytes this region reads
	// (decode-step attention); TKVRead is the DRAM-time saving when that
	// cache slab is held resident in Global Memory. A held cache behaves
	// like a pinned weight for capacity purposes — the tensor persists
	// across inferences, so it charges GM for the whole step, not just a
	// producer→consumer interval. Zero for encoder workloads.
	KVBytes int64
	TKVRead float64

	// EdgeResidentBytes is the tensor's peak Global-Memory residency,
	// which may be below EdgeBytes when the scheduler applies inter-op
	// blocking (§5.5: "schedulers can use inter-op blocking to reduce
	// tensor working set sizes") — e.g. streaming one batch sample at a
	// time between adjacent regions. Zero means EdgeBytes.
	EdgeResidentBytes int64
	// TEdgeRead is the consumer-side DRAM-time saving when the edge
	// tensor is GM-resident (includes activation re-read extras).
	TEdgeRead float64
	// TEdgeWrite is the producer-side saving (its DRAM write), zero when
	// other consumers still force the tensor to DRAM.
	TEdgeWrite float64

	// BaseGM is B_i: the nominal Global Memory the scheduler already uses
	// for working tiles while this region runs.
	BaseGM int64
}

// Solution is the fusion assignment.
type Solution struct {
	// PinWeight[i] keeps region i's weights resident in GM across
	// inferences (weight pinning).
	PinWeight []bool
	// EdgeOnChip[i] keeps region i's primary input tensor in GM from its
	// producer until i runs.
	EdgeOnChip []bool
	// KVOnChip[i] holds region i's persistent KV-cache slab resident in
	// GM for the whole decode step (nil on solutions predating the KV
	// class; treated as all-false).
	KVOnChip []bool
	// Times[i] is the post-fusion execution-time estimate per region.
	Times []float64
	// Total is ΣTimes.
	Total float64
	// GMUsedPeak is the peak Global Memory residency in bytes.
	GMUsedPeak int64
	// Method records how the solution was obtained: "ilp-optimal"
	// (proven), "ilp-within-tol" (certified within the exact solve's
	// relative-gap stop), "ilp-incumbent" (stopped unproven: the stall
	// limit, the node budget or a node LP that failed twice),
	// "greedy", or "disabled".
	Method string
	// Gap is the relative optimality gap the ILP certified when it
	// stopped before proving optimality (Methods "ilp-within-tol" and
	// "ilp-incumbent"); zero otherwise. +Inf means no usable bound
	// survived the early exit.
	Gap float64
	// Nodes is the number of branch-and-bound nodes the ILP explored
	// (zero for the non-ILP methods).
	Nodes int
}

// Options configures SolvePlanned.
type Options struct {
	// MaxNodes bounds the exact ILP solve in branch-and-bound nodes
	// (0 = DefaultMaxNodes). The solve ends at the first of a proof, a
	// certified 0.1% relative gap, the stall limit (16,384 nodes without
	// an improvement, or a quarter of a larger budget, so that it buys a
	// deeper search) or MaxNodes nodes. The paper bounds each solve by a
	// 20-minute SCIP timeout; a node count stops every host alike.
	MaxNodes int
	// Disable turns fusion off entirely (ablation): nothing is placed in
	// GM.
	Disable bool
	// GreedyOnly skips the ILP (used inside search loops where thousands
	// of trials run).
	GreedyOnly bool
}

// regionTime evaluates max(TMin, TMax - saved).
func regionTime(r *RegionCost, saved float64) float64 {
	t := r.TMax - saved
	if t < r.TMin {
		return r.TMin
	}
	return t
}

// savedByRegion accumulates each region's time savings for an assignment
// (hold may be nil: no KV-cache residency).
func savedByRegion(regions []RegionCost, pin, keep, hold []bool) []float64 {
	saved := make([]float64, len(regions))
	accumSaved(saved, regions, pin, keep, hold)
	return saved
}

// accumSaved adds each region's time savings into a caller-provided
// (zeroed) buffer. hold may be nil (no KV-cache residency).
func accumSaved(saved []float64, regions []RegionCost, pin, keep, hold []bool) {
	for i := range regions {
		r := &regions[i]
		if pin[i] {
			saved[i] += r.TWeight
		}
		if keep[i] {
			saved[i] += r.TEdgeRead
			if r.EdgeProducer >= 0 {
				saved[r.EdgeProducer] += r.TEdgeWrite
			}
		}
		if hold != nil && hold[i] {
			saved[i] += r.TKVRead
		}
	}
}

// UsableEdges is the design-independent half of the fusion pre-analysis:
// region i's primary edge is a placement candidate only when it has a
// producer within the residency window. The producers slice holds each
// region's EdgeProducer in execution order. The result depends only on
// the partition, so callers evaluating one workload against many
// datapaths compute it once (sim.Compile) and pass it to SolvePlanned
// for every design.
func UsableEdges(producers []int) []bool {
	usable := make([]bool, len(producers))
	for i, p := range producers {
		usable[i] = p >= 0 && i-p >= 1 && i-p <= residencyWindow
	}
	return usable
}

// Assignment is the memoizable output of SolvePlanned: the placement
// decision plus the solve provenance. The slices are owned by the
// Assignment and treated as read-only by ResolvePlanned, so one
// Assignment can back many concurrent Solutions.
type Assignment struct {
	Pin, Keep []bool
	// Hold marks regions whose persistent KV-cache slab stays resident
	// in GM (always allocated, all-false for encoder workloads).
	Hold []bool
	// Method is "disabled", "greedy", "ilp-incumbent", "ilp-within-tol"
	// or "ilp-optimal".
	Method string
	// Gap is the ILP's certified relative optimality gap when it stopped
	// unproven (see Solution.Gap); Nodes its branch-and-bound node count.
	Gap   float64
	Nodes int
}

// testHook holds the seam only _test.go files set (via export_test.go);
// production code leaves it nil.
var testHook struct {
	// solve observes every instance entering SolvePlanned's solvers.
	solve func(regions []RegionCost, usable []bool, capacity int64)
}

// SolvePlanned computes into *asn just the placement assignment — which
// regions pin weights and which keep their primary edge on chip —
// without the per-region time/peak roll-up. The assignment is the
// expensive, design-dependent part of the fusion stage (greedy
// selection, optional ILP); callers that memoize it across evaluations
// reconstruct full Solutions with ResolvePlanned. asn's slices are
// reused where their capacity allows (a zero Assignment gets fresh
// ones), so a caller that keeps no assignment solves design after design
// without allocating. usable is the precomputed window analysis (see
// UsableEdges); it is read, never written, so one slice may be shared by
// concurrent solves over the same region structure.
func SolvePlanned(asn *Assignment, regions []RegionCost, usable []bool, capacity int64, opts Options) {
	n := len(regions)
	pin, keep, hold := reset(&asn.Pin, n), reset(&asn.Keep, n), reset(&asn.Hold, n)
	*asn = Assignment{Pin: pin, Keep: keep, Hold: hold, Method: "disabled"}
	if opts.Disable || n == 0 || capacity <= 0 {
		return
	}
	normalizeResident(regions)
	if testHook.solve != nil {
		testHook.solve(regions, usable, capacity)
	}
	greedy(regions, usable, capacity, pin, keep, hold)
	asn.Method = "greedy"
	if !opts.GreedyOnly {
		total, stall := nodeLimits(opts.MaxNodes)
		if ilpAsn, res := solveILP(regions, usable, capacity, pin, keep, hold, total, stall); res.Feasible {
			*asn = ilpAsn
		}
	}
}

// ResolvePlanned reconstructs into *sol the full Solution for a known
// assignment (as returned by SolvePlanned, possibly from a cache):
// per-region post-fusion times, total, and peak GM usage, with a
// defensive capacity repair. sol's slices are reused where their
// capacity allows (a zero Solution gets fresh ones). The assignment
// slices are copied, never retained, so a memoized Assignment can be
// shared read-only across concurrent callers.
func ResolvePlanned(sol *Solution, regions []RegionCost, capacity int64, asn Assignment) {
	n := len(regions)
	*sol = Solution{
		PinWeight:  append(sol.PinWeight[:0], asn.Pin...),
		EdgeOnChip: append(sol.EdgeOnChip[:0], asn.Keep...),
		KVOnChip:   reset(&sol.KVOnChip, n),
		Times:      reset(&sol.Times, n),
		Method:     asn.Method,
		Gap:        asn.Gap,
		Nodes:      asn.Nodes,
	}
	copy(sol.KVOnChip, asn.Hold)
	if asn.Method == "disabled" {
		for i, r := range regions {
			sol.Times[i] = r.TMax
			sol.Total += r.TMax
		}
		return
	}
	normalizeResident(regions)
	finalize(sol, regions, capacity)
}

// normalizeResident applies the EdgeResidentBytes-defaults-to-EdgeBytes
// convention in place (idempotent).
func normalizeResident(regions []RegionCost) {
	for i := range regions {
		if regions[i].EdgeResidentBytes == 0 {
			regions[i].EdgeResidentBytes = regions[i].EdgeBytes
		}
	}
}

// finalizeScratch pools finalize's non-escaping buffers (saved times and
// the residency sweep), which would otherwise be the last per-trial
// allocations of the fusion solve.
type finalizeScratch struct {
	saved []float64
	delta []int64
}

var finalizePool = sync.Pool{New: func() any { return new(finalizeScratch) }}

// finalize computes per-region times and peak GM usage for an assignment,
// repairing any capacity violation by dropping the lowest-density choices
// (defensive; greedy and ILP both respect capacity already).
func finalize(sol *Solution, regions []RegionCost, capacity int64) {
	fs := finalizePool.Get().(*finalizeScratch)
	defer finalizePool.Put(fs)
	delta := reset(&fs.delta, len(regions)+1)
	for repair := 0; ; repair++ {
		peak := peakUsageBuf(sol, regions, delta)
		if peak <= capacity || repair > 2*len(regions) {
			sol.GMUsedPeak = peak
			break
		}
		dropLowestDensity(sol, regions)
	}
	saved := reset(&fs.saved, len(regions))
	accumSaved(saved, regions, sol.PinWeight, sol.EdgeOnChip, sol.KVOnChip)
	sol.Total = 0
	for i := range regions {
		sol.Times[i] = regionTime(&regions[i], saved[i])
		sol.Total += sol.Times[i]
	}
}

// peakUsageBuf computes max over regions k of B_k + pinned weights +
// edge tensors resident across k (an edge with producer p and consumer c
// occupies GM for every region in [p, c]). delta is a sweep buffer of
// length len(regions)+1 (contents ignored; overwritten).
func peakUsageBuf(sol *Solution, regions []RegionCost, delta []int64) int64 {
	n := len(regions)
	var pinned int64
	for i := range regions {
		r := &regions[i]
		if sol.PinWeight[i] {
			pinned += r.DWeight
		}
		// Held KV-cache slabs persist across the whole step, so like
		// pins they charge every region uniformly.
		if sol.KVOnChip != nil && sol.KVOnChip[i] {
			pinned += r.KVBytes
		}
	}
	// Sweep: delta array over residency intervals.
	for i := range delta {
		delta[i] = 0
	}
	for i := range regions {
		r := &regions[i]
		if sol.EdgeOnChip[i] && r.EdgeProducer >= 0 {
			b := r.EdgeResidentBytes
			if b == 0 {
				b = r.EdgeBytes
			}
			delta[r.EdgeProducer] += b
			delta[i+1] -= b
		}
	}
	var peak, resident int64
	for k := 0; k < n; k++ {
		resident += delta[k]
		use := pinned + resident + regions[k].BaseGM
		if use > peak {
			peak = use
		}
	}
	return peak
}

func dropLowestDensity(sol *Solution, regions []RegionCost) {
	worstI, worstKind := -1, 0
	worst := math.Inf(1)
	for i, r := range regions {
		if sol.PinWeight[i] && r.DWeight > 0 {
			if d := r.TWeight / float64(r.DWeight); d < worst {
				worst, worstI, worstKind = d, i, 0
			}
		}
		if sol.EdgeOnChip[i] && r.EdgeResidentBytes > 0 {
			if d := (r.TEdgeRead + r.TEdgeWrite) / float64(r.EdgeResidentBytes); d < worst {
				worst, worstI, worstKind = d, i, 1
			}
		}
		if sol.KVOnChip != nil && sol.KVOnChip[i] && r.KVBytes > 0 {
			if d := r.TKVRead / float64(r.KVBytes); d < worst {
				worst, worstI, worstKind = d, i, 2
			}
		}
	}
	if worstI < 0 {
		return
	}
	switch worstKind {
	case 0:
		sol.PinWeight[worstI] = false
	case 1:
		sol.EdgeOnChip[worstI] = false
	default:
		sol.KVOnChip[worstI] = false
	}
}
