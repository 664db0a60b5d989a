// Package hlo implements an XLA-HLO-like operation graph IR.
//
// The paper's simulator consumes "unmodified XLA HLO graphs"; this package
// is the equivalent substrate. A Graph is a DAG of Ops. Each Op carries its
// output shape, optional weight (parameter) shape, and enough attributes
// for the cost models: convolution geometry, einsum contraction dims, and
// a vector-op class for everything that runs on the VPU.
//
// The package also implements the XLA-style fusion-region pass (at most
// one matrix op per region) plus the hypothetical DSConv/MBConv fusion
// templates and ideal weight pinning used in the paper's Figure 3
// operational-intensity study.
package hlo

import (
	"fmt"

	"fast/internal/tensor"
)

// Kind classifies an operation. The matrix kinds (Conv2D, DepthwiseConv2D,
// MatMul, Einsum) are scheduled on the systolic arrays by the mapper;
// everything else runs on the VPU (or is free, for layout-only ops).
type Kind int

const (
	// KInput is a graph parameter (model input activation).
	KInput Kind = iota
	// KConv2D is a standard 2-D convolution.
	KConv2D
	// KDepthwiseConv2D is a depthwise 2-D convolution (filter depth 1).
	KDepthwiseConv2D
	// KMatMul is a dense matrix multiplication (optionally batched).
	KMatMul
	// KEinsum is a general contraction; the paper's BERT self-attention
	// activation×activation products are einsums.
	KEinsum
	// KAdd is elementwise addition (residual connections, bias add).
	KAdd
	// KMul is elementwise multiplication (gating, SE-block excite).
	KMul
	// KActivation is a pointwise nonlinearity (ReLU, swish, GELU, sigmoid,
	// tanh); the specific function only changes the per-element op count.
	KActivation
	// KSoftmax is a row softmax (3-pass numerically stable by default; the
	// two-pass variant of §5.6 is a simulator option).
	KSoftmax
	// KLayerNorm is layer normalization over the feature dimension.
	KLayerNorm
	// KBatchNorm is inference-mode batch norm (scale+shift).
	KBatchNorm
	// KPool is spatial average/max pooling.
	KPool
	// KGlobalPool is global average pooling (squeeze in SE blocks, final
	// pooling in CNNs).
	KGlobalPool
	// KReshape is a layout-only op; free in the cost model.
	KReshape
	// KConcat concatenates along a dimension; costed as a copy.
	KConcat
	// KSlice extracts a sub-tensor; costed as a copy.
	KSlice
	// KGather is an embedding lookup.
	KGather
	// KLSTMCell is a fused LSTM cell step (OCR-Recognizer); its matrix
	// parts are accounted as matmuls by the cost model.
	KLSTMCell
	// KOutput marks a graph result.
	KOutput
	// KKVCache is a persistent attention key/value cache read by a decode
	// step. Like KInput it is a source (no compute, no weights), but its
	// bytes are neither activations nor weights: the tensor persists
	// across decode steps, so the residency solver may hold it in global
	// memory for the whole step instead of re-reading it from DRAM.
	KKVCache
)

var kindNames = map[Kind]string{
	KInput: "input", KConv2D: "conv2d",
	KDepthwiseConv2D: "depthwise-conv2d", KMatMul: "matmul",
	KEinsum: "einsum", KAdd: "add", KMul: "multiply",
	KActivation: "activation", KSoftmax: "softmax", KLayerNorm: "layernorm",
	KBatchNorm: "batchnorm", KPool: "pool", KGlobalPool: "global-pool",
	KReshape: "reshape", KConcat: "concat", KSlice: "slice", KGather: "gather",
	KLSTMCell: "lstm-cell", KOutput: "output", KKVCache: "kv-cache",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// IsMatrix reports whether the op is scheduled on the systolic array.
func (k Kind) IsMatrix() bool {
	switch k {
	case KConv2D, KDepthwiseConv2D, KMatMul, KEinsum, KLSTMCell:
		return true
	}
	return false
}

// IsFree reports whether the op is layout-only and costless.
func (k Kind) IsFree() bool {
	return k == KReshape || k == KInput || k == KOutput || k == KKVCache
}

// ConvParams carries convolution geometry. Layout is NHWC activations and
// HWIO filters.
type ConvParams struct {
	KH, KW           int64 // kernel height/width
	StrideH, StrideW int64
	// SamePad selects TensorFlow SAME padding; otherwise VALID.
	SamePad bool
}

// EinsumParams describes a contraction C[batch,m,n] = A[batch,m,k] ×
// B[batch,k,n]. BERT's QK^T and PV products and every matmul reduce to
// this triple.
type EinsumParams struct {
	Batch, M, N, K int64
	// ActAct marks an activation×activation product (both operands are
	// produced at inference time, so neither can be latched and amortized
	// across the batch like weights can — §4.3).
	ActAct bool
}

// Op is one node of the graph. Ops are created through Graph builder
// methods and are immutable afterwards.
type Op struct {
	ID   int
	Name string
	Kind Kind

	// Inputs are activation operands (producers in the graph).
	Inputs []*Op

	// Output is the result shape.
	Output tensor.Shape

	// Weights is the parameter tensor read by the op (zero-elem shape if
	// none). Bias vectors are folded into Weights for accounting.
	Weights tensor.Shape

	// Conv is set for KConv2D/KDepthwiseConv2D/KPool.
	Conv *ConvParams

	// Einsum is set for KMatMul/KEinsum (and derived for KLSTMCell).
	Einsum *EinsumParams

	// VecOpsPerElem is the per-output-element vector-op count for VPU
	// kinds; the model zoo sets it where the default is wrong (e.g.
	// swish = 4: sigmoid≈3 + multiply).
	VecOpsPerElem float64

	// Block labels the model block/layer the op belongs to (e.g.
	// "mbconv3_2"). Per-layer reports (Figures 4 and 14) and the MBConv
	// fusion template group by this label.
	Block string

	// WeightKey identifies the parameter tensor for footprint accounting.
	// Ops that share weights (e.g. an unrolled LSTM reusing one cell's
	// parameters every time step) carry the same key so the model's
	// weight footprint and weight pinning count the tensor once. Empty
	// means the op's weights are unshared.
	WeightKey string
}

// SharedWeightKey returns the op's dedup key for weight accounting: the
// explicit WeightKey if set, else a per-op unique key.
func (o *Op) SharedWeightKey() string {
	if o.WeightKey != "" {
		return o.WeightKey
	}
	return fmt.Sprintf("op%d", o.ID)
}

// HasWeights reports whether the op reads parameters.
func (o *Op) HasWeights() bool { return len(o.Weights.Dims) > 0 && o.Weights.Elems() > 0 }

// WeightBytes returns the parameter footprint in bytes.
func (o *Op) WeightBytes() int64 {
	if !o.HasWeights() {
		return 0
	}
	return o.Weights.Bytes()
}

// InputBytes returns the total activation-input footprint in bytes.
func (o *Op) InputBytes() int64 {
	var n int64
	for _, in := range o.Inputs {
		n += in.Output.Bytes()
	}
	return n
}

// OutputBytes returns the output footprint in bytes.
func (o *Op) OutputBytes() int64 { return o.Output.Bytes() }

// WorkingSetBytes is the op's working set: inputs + outputs (the paper's
// definition in §4.1; weights are tracked separately).
func (o *Op) WorkingSetBytes() int64 { return o.InputBytes() + o.OutputBytes() }

func (o *Op) String() string {
	return fmt.Sprintf("%%%d = %s %s %q", o.ID, o.Output, o.Kind, o.Name)
}
