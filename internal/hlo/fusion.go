package hlo

// Fusion-region partitioning.
//
// The paper's compiler substrate is XLA, whose fusion pass groups ops into
// fusion regions containing at most one matrix operation each; FAST fusion
// (internal/fusion) is then a secondary pass over those regions. This file
// implements that partitioning plus the Figure 3 comparison templates:
//
//	PartitionNone    — every costed op is its own region (no fusion)
//	PartitionXLA     — greedy XLA-style regions (≤1 matrix op each)
//	PartitionDSConv  — XLA + merge depthwise→pointwise pairs
//	PartitionMBConv  — XLA + merge all regions within a model block
//	IdealOpIntensity — all weights pinned; only graph I/O touches DRAM

// Region is a fusion region: a set of ops executed as one kernel. Only
// the region's boundary tensors (external inputs, outputs consumed
// elsewhere) and weights touch DRAM.
type Region struct {
	ID  int
	Ops []*Op
	// Block is the model block of the region's first op.
	Block string
}

// Partition is a complete assignment of costed ops to regions, in
// execution order (regions are ordered by their first op ID).
type Partition struct {
	Graph    *Graph
	Regions  []*Region
	regionOf []int // op ID -> region index, -1 for sources/markers

	consumers [][]int // lazily cached Graph.Consumers()
}

// Consumers returns the cached consumer adjacency of the graph.
func (p *Partition) Consumers() [][]int {
	if p.consumers == nil {
		p.consumers = p.Graph.Consumers()
	}
	return p.consumers
}

// RegionOf returns the region index of op id, or -1 for ops outside any
// region (inputs, KV caches, output markers).
func (p *Partition) RegionOf(id int) int { return p.regionOf[id] }

// skipRegion reports whether the op never belongs to a region.
func skipRegion(op *Op) bool {
	return op.Kind == KInput || op.Kind == KOutput || op.Kind == KKVCache
}

func newPartition(g *Graph) *Partition {
	p := &Partition{Graph: g, regionOf: make([]int, len(g.Ops))}
	for i := range p.regionOf {
		p.regionOf[i] = -1
	}
	return p
}

func (p *Partition) newRegion(op *Op) int {
	r := &Region{ID: len(p.Regions), Block: op.Block}
	r.Ops = append(r.Ops, op)
	p.Regions = append(p.Regions, r)
	p.regionOf[op.ID] = r.ID
	return r.ID
}

func (p *Partition) join(op *Op, region int) {
	r := p.Regions[region]
	r.Ops = append(r.Ops, op)
	p.regionOf[op.ID] = region
}

// PartitionNone puts every costed op in its own region.
func PartitionNone(g *Graph) *Partition {
	p := newPartition(g)
	for _, op := range g.Ops {
		if skipRegion(op) {
			continue
		}
		p.newRegion(op)
	}
	return p
}

// PartitionXLA approximates XLA's fusion pass: a matrix op always opens a
// new region; a non-matrix op joins the region of its most recent
// non-source producer (reading any other operands as region parameters),
// and opens a new region if it has no producer region. Each region holds
// at most one matrix op by construction.
func PartitionXLA(g *Graph) *Partition {
	p := newPartition(g)
	for _, op := range g.Ops {
		if skipRegion(op) {
			continue
		}
		if op.Kind.IsMatrix() {
			p.newRegion(op)
			continue
		}
		best := -1
		for _, in := range op.Inputs {
			if r := p.regionOf[in.ID]; r > best {
				best = r
			}
		}
		if best < 0 {
			p.newRegion(op)
		} else {
			p.join(op, best)
		}
	}
	return p
}

// mergeRegions rebuilds a Partition given a union-find style mapping from
// old region index to merged group leader.
func mergeRegions(p *Partition, leader []int) *Partition {
	out := newPartition(p.Graph)
	groupTo := make(map[int]int)
	for _, op := range p.Graph.Ops {
		r := p.regionOf[op.ID]
		if r < 0 {
			continue
		}
		l := leader[r]
		if g, ok := groupTo[l]; ok {
			out.join(op, g)
		} else {
			groupTo[l] = out.newRegion(op)
		}
	}
	return out
}

func find(leader []int, i int) int {
	for leader[i] != i {
		leader[i] = leader[leader[i]]
		i = leader[i]
	}
	return i
}

// PartitionDSConv starts from the XLA partition and additionally merges
// each depthwise-convolution region with the region of its 1×1 pointwise
// consumer — the hypothetical depthwise-separable fusion template of §4.1.
func PartitionDSConv(g *Graph) *Partition {
	p := PartitionXLA(g)
	leader := make([]int, len(p.Regions))
	for i := range leader {
		leader[i] = i
	}
	consumers := g.Consumers()
	for _, op := range g.Ops {
		if op.Kind != KDepthwiseConv2D {
			continue
		}
		// Find the pointwise conv that (transitively, through elementwise
		// ops in other regions) consumes this op within the same block.
		dwRegion := p.regionOf[op.ID]
		frontier := append([]int(nil), consumers[op.ID]...)
		for i := 0; i < len(frontier) && len(frontier) < 64; i++ {
			cid := frontier[i]
			c := g.Ops[cid]
			if c.Kind == KConv2D && c.Conv.KH == 1 && c.Conv.KW == 1 {
				a, b := find(leader, dwRegion), find(leader, p.regionOf[cid])
				leader[a] = b
			} else if !c.Kind.IsMatrix() && p.regionOf[cid] >= 0 {
				frontier = append(frontier, consumers[cid]...)
			}
		}
	}
	return mergeRegions(p, normalizeLeaders(leader))
}

// PartitionMBConv starts from the XLA partition and merges every region
// belonging to the same model block into one — the hypothetical MBConv
// block-fusion template of §4.1.
func PartitionMBConv(g *Graph) *Partition {
	p := PartitionXLA(g)
	leader := make([]int, len(p.Regions))
	byBlock := make(map[string]int)
	for i, r := range p.Regions {
		leader[i] = i
		if r.Block == "" {
			continue
		}
		if first, ok := byBlock[r.Block]; ok {
			leader[i] = first
		} else {
			byBlock[r.Block] = i
		}
	}
	return mergeRegions(p, normalizeLeaders(leader))
}

func normalizeLeaders(leader []int) []int {
	out := make([]int, len(leader))
	for i := range leader {
		out[i] = find(leader, i)
	}
	return out
}

// RegionIO describes a region's DRAM-visible traffic assuming no
// cross-region on-chip residency (the pre-FAST-fusion state).
type RegionIO struct {
	// InputBytes is the activation bytes read from outside the region
	// (deduplicated by producer).
	InputBytes int64
	// OutputBytes is the bytes of tensors produced in-region and consumed
	// outside it (or being graph results).
	OutputBytes int64
	// WeightBytes is the parameter bytes the region reads.
	WeightBytes int64
	// KVBytes is the persistent key/value-cache bytes the region reads
	// (KKVCache sources, deduplicated). Kept separate from InputBytes
	// because the tensor persists across decode steps: the residency
	// solver may hold it on chip, which no ordinary activation input
	// allows.
	KVBytes int64
	// FLOPs is the region's compute.
	FLOPs int64
	// MatrixFLOPs is the systolic-array share of FLOPs.
	MatrixFLOPs int64
}

// IO computes RegionIO for region r under partition p.
func (p *Partition) IO(r *Region) RegionIO {
	var io RegionIO
	seen := make(map[int]bool)
	seenW := make(map[string]bool)
	consumers := p.Consumers()
	for _, op := range r.Ops {
		io.FLOPs += FLOPs(op)
		if op.Kind.IsMatrix() {
			io.MatrixFLOPs += FLOPs(op)
		}
		if op.HasWeights() {
			if k := op.SharedWeightKey(); !seenW[k] {
				seenW[k] = true
				io.WeightBytes += op.WeightBytes()
			}
		}
		for _, in := range op.Inputs {
			if p.regionOf[in.ID] != r.ID && !seen[in.ID] {
				seen[in.ID] = true
				if in.Kind == KKVCache {
					io.KVBytes += in.Output.Bytes()
					continue
				}
				io.InputBytes += in.Output.Bytes()
			}
		}
		// Does anything outside the region consume this op?
		external := false
		for _, cid := range consumers[op.ID] {
			if p.regionOf[cid] != r.ID {
				external = true
				break
			}
		}
		if external {
			io.OutputBytes += op.Output.Bytes()
		}
	}
	return io
}

// PrimaryEdge finds region r's largest external activation input: the
// producing region, the tensor's bytes, and whether r is that tensor's
// only external consumer (so the producer's DRAM write is avoidable).
// This is the per-region edge candidate FAST fusion decides over; it
// depends only on the partition, never on the datapath.
func (p *Partition) PrimaryEdge(r *Region) (producer int, bytes int64, sole bool) {
	producer = -1
	var bestOp *Op
	for _, op := range r.Ops {
		for _, in := range op.Inputs {
			pr := p.RegionOf(in.ID)
			if pr >= 0 && pr != r.ID && in.Output.Bytes() > bytes {
				producer, bytes, bestOp = pr, in.Output.Bytes(), in
			}
		}
	}
	if bestOp == nil {
		return -1, 0, false
	}
	sole = true
	for _, cid := range p.Consumers()[bestOp.ID] {
		cr := p.RegionOf(cid)
		if cr != producer && cr != r.ID {
			sole = false
			break
		}
	}
	return producer, bytes, sole
}

// OpIntensity returns the graph's operational intensity (FLOPs per DRAM
// byte) under this partition, assuming every region boundary tensor and
// all weights are DRAM traffic — the paper's Figure 3 metric.
func (p *Partition) OpIntensity() float64 {
	var flops, bytes int64
	for _, r := range p.Regions {
		io := p.IO(r)
		flops += io.FLOPs
		bytes += io.InputBytes + io.OutputBytes + io.WeightBytes + io.KVBytes
	}
	if bytes == 0 {
		return 0
	}
	return float64(flops) / float64(bytes)
}

// IdealOpIntensity is the Figure 3 "ideal" bound: all weights pinned
// on-chip, so only the graph input and final output touch DRAM.
func IdealOpIntensity(g *Graph) float64 {
	s := Stats(g)
	bytes := s.InputBytes + s.OutputBytes
	if bytes == 0 {
		return 0
	}
	return float64(s.FLOPs) / float64(bytes)
}
