package hlo

// FLOPs returns the floating-point operation count of an op, counting one
// multiply-accumulate as 2 FLOPs (the convention the paper and MLPerf
// use). Vector ops count VecOpsPerElem per output element.
func FLOPs(op *Op) int64 {
	switch op.Kind {
	case KConv2D:
		// 2 · B·OH·OW·OF · KH·KW·IF
		b, oh, ow, of := op.Output.Dim(0), op.Output.Dim(1), op.Output.Dim(2), op.Output.Dim(3)
		ifc := op.Inputs[0].Output.Dim(3)
		return 2 * b * oh * ow * of * op.Conv.KH * op.Conv.KW * ifc
	case KDepthwiseConv2D:
		// 2 · B·OH·OW·C · KH·KW (filter depth is 1 — the §3.2 compute
		// reduction that also destroys systolic-array utilization).
		return 2 * op.Output.Elems() * op.Conv.KH * op.Conv.KW
	case KMatMul, KEinsum, KLSTMCell:
		e := op.Einsum
		flops := 2 * e.Batch * e.M * e.N * e.K
		if op.Kind == KLSTMCell {
			flops += int64(op.VecOpsPerElem) * op.Output.Elems()
		}
		return flops
	case KInput, KOutput, KReshape, KKVCache:
		return 0
	default:
		per := op.VecOpsPerElem
		if per == 0 {
			per = 1
		}
		return int64(per * float64(op.Output.Elems()))
	}
}

// WeightBytes sums the unique parameter footprint of the graph,
// counting shared weight tensors (same WeightKey) once.
func WeightBytes(g *Graph) int64 {
	var n int64
	seen := make(map[string]bool)
	for _, op := range g.Ops {
		if !op.HasWeights() {
			continue
		}
		k := op.SharedWeightKey()
		if seen[k] {
			continue
		}
		seen[k] = true
		n += op.WeightBytes()
	}
	return n
}

// MaxWorkingSetBytes returns the working-set size of the op with the
// largest memory footprint (inputs+outputs) — the paper's Table 1 metric.
// Free ops are skipped.
func MaxWorkingSetBytes(g *Graph) int64 {
	var m int64
	for _, op := range g.Ops {
		if op.Kind.IsFree() {
			continue
		}
		if ws := op.WorkingSetBytes(); ws > m {
			m = ws
		}
	}
	return m
}

// GraphStats aggregates whole-graph accounting used by reports.
type GraphStats struct {
	Ops            int
	MatrixOps      int
	FLOPs          int64
	WeightBytes    int64
	MaxWorkingSet  int64
	InputBytes     int64 // graph inputs fetched from DRAM
	OutputBytes    int64 // graph results written to DRAM
	KVBytes        int64 // persistent KV-cache bytes read per decode step
	DepthwiseFLOPs int64
	Conv2DFLOPs    int64
	VectorFLOPs    int64
}

// Stats computes GraphStats for g.
func Stats(g *Graph) GraphStats {
	s := GraphStats{Ops: len(g.Ops)}
	seenW := make(map[string]bool)
	for _, op := range g.Ops {
		f := FLOPs(op)
		s.FLOPs += f
		if op.HasWeights() {
			if k := op.SharedWeightKey(); !seenW[k] {
				seenW[k] = true
				s.WeightBytes += op.WeightBytes()
			}
		}
		switch {
		case op.Kind == KConv2D:
			s.Conv2DFLOPs += f
			s.MatrixOps++
		case op.Kind == KDepthwiseConv2D:
			s.DepthwiseFLOPs += f
			s.MatrixOps++
		case op.Kind.IsMatrix():
			s.Conv2DFLOPs += f
			s.MatrixOps++
		default:
			s.VectorFLOPs += f
		}
		if op.Kind == KInput {
			s.InputBytes += op.Output.Bytes()
		}
		if op.Kind == KOutput {
			s.OutputBytes += op.Output.Bytes()
		}
		if op.Kind == KKVCache {
			s.KVBytes += op.Output.Bytes()
		}
	}
	s.MaxWorkingSet = MaxWorkingSetBytes(g)
	return s
}
