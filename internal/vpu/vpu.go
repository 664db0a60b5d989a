// Package vpu is the vector-processing-unit cost model: every non-matrix
// op (softmax, layernorm, elementwise math, pooling, reductions, data
// movement) executes on the per-PE VPUs (§5.4). It also implements the
// cost difference between the 3-pass numerically-stable softmax
// (Algorithm 1) and the two-pass online-normalizer softmax (Algorithm 2,
// §5.6): the two-pass variant saves one full DRAM round trip of the
// input at the price of up to 2N extra exponentials.
package vpu

import (
	"fast/internal/arch"
	"fast/internal/hlo"
)

// expCost is the vector-op cost of one exponential on the VPU (lookup
// table + Taylor refinement, per [67] in the paper).
const expCost = 8

// vpuEfficiency derates peak VPU throughput for real kernels (issue
// bubbles, alignment); calibrated so softmax lands at the paper's "<1% of
// peak chip FLOPs" on TPU-v3.
const vpuEfficiency = 0.85

// lanesOpsPerCycle: each VPU lane executes one fused multiply-add per
// cycle (2 element ops), matching the TPU-v3 vector unit.
const lanesOpsPerCycle = 2

// Cost is the VPU work and mandatory DRAM traffic of a vector op.
type Cost struct {
	// VectorOps is the total element operations executed on VPU lanes.
	VectorOps float64
	// ExtraDRAMBytes is algorithm-mandated DRAM traffic beyond the op's
	// fusion-region boundary traffic (e.g. the spilled temp vector of
	// 3-pass softmax when the row does not fit on chip). Zero for ops
	// whose traffic is fully described by region I/O.
	ExtraDRAMBytes int64
}

// SoftmaxAlgorithm selects the §5.6 variant.
type SoftmaxAlgorithm int

const (
	// ThreePass is Algorithm 1: max pass, exp+sum pass (materializing the
	// temp vector), divide pass.
	ThreePass SoftmaxAlgorithm = iota
	// TwoPass is Algorithm 2: fused online max+sum pass, then output
	// pass; recomputes exponentials instead of materializing them.
	TwoPass
)

// String implements fmt.Stringer.
func (a SoftmaxAlgorithm) String() string {
	if a == TwoPass {
		return "two-pass"
	}
	return "three-pass"
}

// softmaxCost returns the VPU cost of softmax over `rows` rows of length
// rowLen. fitsOnChip reports whether one row's working set stays in
// on-chip memory between passes; when it does not, each extra pass costs
// DRAM traffic (§5.6: "these 3 passes usually involve reading and
// writing the values to and from DRAM").
func softmaxCost(rows, rowLen int64, alg SoftmaxAlgorithm, fitsOnChip bool, elemBytes int64) Cost {
	n := float64(rows * rowLen)
	var c Cost
	switch alg {
	case TwoPass:
		// Pass 1: running max (1) + rescale exp (expCost) + elem exp
		// (expCost) + multiply-add (2) per element.
		// Pass 2: exp (expCost) + divide (1).
		c.VectorOps = n * (1 + 2*expCost + 2 + expCost + 1)
		if !fitsOnChip {
			// Reads V twice, writes out once — but the fusion-region
			// traffic already covers one read and one write, so one extra
			// read remains.
			c.ExtraDRAMBytes = int64(n) * elemBytes
		}
	default:
		// Pass 1: max (1). Pass 2: subtract (1) + exp (expCost) + add
		// (1), writing tempVec. Pass 3: divide (1).
		c.VectorOps = n * (1 + 1 + expCost + 1 + 1)
		if !fitsOnChip {
			// Reads V twice and round-trips the temp vector beyond the
			// region's one read + one write: extra = 1 read of V + 1
			// write + 1 read of tempVec = 3N elements.
			c.ExtraDRAMBytes = 3 * int64(n) * elemBytes
		}
	}
	return c
}

// OpCost returns the VPU cost of a non-matrix op. Softmax uses the
// algorithm and on-chip residency the simulator determined. Matrix ops
// and free ops return zero cost.
func OpCost(op *hlo.Op, alg SoftmaxAlgorithm, softmaxFitsOnChip bool) Cost {
	if op.Kind.IsMatrix() || op.Kind.IsFree() {
		return Cost{}
	}
	if op.Kind == hlo.KSoftmax {
		rowLen := op.Output.Dim(op.Output.Rank() - 1)
		rows := op.Output.Elems() / rowLen
		return softmaxCost(rows, rowLen, alg, softmaxFitsOnChip, op.Output.Type.Size())
	}
	per := op.VecOpsPerElem
	if per == 0 {
		per = 1
	}
	return Cost{VectorOps: per * float64(op.Output.Elems())}
}

// Peak returns the sustained vector ops per second of one core's VPUs
// on config c, the rate Time divides by.
func Peak(c *arch.Config) float64 {
	return c.PeakVectorOps() / float64(c.Cores) * vpuEfficiency * lanesOpsPerCycle
}

// Time converts vector ops into seconds at a per-core VPU rate peak
// (Peak of a config); a rate of zero or less costs nothing.
func Time(vectorOps, peak float64) float64 {
	if peak <= 0 {
		return 0
	}
	return vectorOps / peak
}

// LSTMGateOps returns the VPU-side work of a fused LSTM cell (the gate
// nonlinearities and state update that accompany its matmul).
func LSTMGateOps(op *hlo.Op) float64 {
	if op.Kind != hlo.KLSTMCell {
		return 0
	}
	return op.VecOpsPerElem * float64(op.Output.Elems())
}
