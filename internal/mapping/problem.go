// Package mapping is the Timeloop-equivalent schedule mapper: given a
// matrix operation and a datapath configuration it finds the best loop
// mapping (spatial unrolling onto the systolic arrays and PE grid,
// temporal streaming order) and reports utilization, compute cycles, and
// the DRAM-traffic floor implied by on-chip capacity.
//
// Differences from Timeloop: instead of randomly sampling
// an unconstrained mapspace, the mapper enumerates the dominant mapping
// schemes (weight-stationary, output-stationary, 1-D convolution column
// streaming) with a tensor-padding pre-pass, which is deterministic and
// preserves the utilization cliffs the paper's analysis rests on (§3.1,
// §3.2). Designs whose buffers cannot hold a single tile fail to
// schedule, implementing the ScheduleFailures(h,w)=0 constraint (Eq. 5).
package mapping

import (
	"fast/internal/hlo"
)

// Problem is the canonical matrix problem extracted from an HLO op:
// Indep independent instances of C[M,N] = A[M,K] × B[K,N].
type Problem struct {
	M, N, K int64
	// Indep counts independent instances: depthwise channels, attention
	// batch×heads, LSTM steps (=1 for plain matmul/conv).
	Indep int64
	// WeightsStationary is true when operand B is a parameter tensor: one
	// latched tile serves every row of every instance and batch element.
	// Activation×activation products (self-attention) set this false, so
	// latch costs cannot be amortized across the batch (§4.3).
	WeightsStationary bool
	// ConvLike permits the 1-D convolution column-streaming scheme
	// (weights latched as taps; every array column computes an
	// independent output pixel), the mapping that rescues depthwise
	// convolutions (§3.2).
	ConvLike bool
	// Bytes is the element size.
	Bytes int64
}

// FromOp converts a matrix HLO op into a Problem; ok is false for
// non-matrix ops.
func FromOp(op *hlo.Op) (p Problem, ok bool) {
	b := op.Output.Type.Size()
	switch op.Kind {
	case hlo.KConv2D:
		in := op.Inputs[0].Output
		out := op.Output
		return Problem{
			M:     out.Dim(0) * out.Dim(1) * out.Dim(2),
			N:     out.Dim(3),
			K:     op.Conv.KH * op.Conv.KW * in.Dim(3),
			Indep: 1, WeightsStationary: true, ConvLike: true, Bytes: b,
		}, true
	case hlo.KDepthwiseConv2D:
		out := op.Output
		// Each channel is an independent tiny contraction: K = KH·KW,
		// N = 1. FLOP count per §3.2 is 2·B·OH·OW·C·KH·KW.
		return Problem{
			M:     out.Dim(0) * out.Dim(1) * out.Dim(2),
			N:     1,
			K:     op.Conv.KH * op.Conv.KW,
			Indep: out.Dim(3), WeightsStationary: true, ConvLike: true, Bytes: b,
		}, true
	case hlo.KMatMul, hlo.KLSTMCell:
		e := op.Einsum
		return Problem{
			M: e.M, N: e.N, K: e.K, Indep: e.Batch,
			WeightsStationary: true, Bytes: b,
		}, true
	case hlo.KEinsum:
		e := op.Einsum
		return Problem{
			M: e.M, N: e.N, K: e.K, Indep: e.Batch,
			WeightsStationary: !e.ActAct, Bytes: b,
		}, true
	}
	return Problem{}, false
}

// ActivationBytes returns the A-operand footprint (per instance × Indep).
func (p Problem) ActivationBytes() int64 { return p.Indep * p.M * p.K * p.Bytes }

// StationaryBytes returns the B-operand footprint (each instance latches
// its own K×N tile set: depthwise channels have per-channel filters,
// attention heads have per-head score matrices).
func (p Problem) StationaryBytes() int64 { return p.Indep * p.K * p.N * p.Bytes }

// OutputBytes returns the C-operand footprint.
func (p Problem) OutputBytes() int64 { return p.Indep * p.M * p.N * p.Bytes }
