package hlo

import (
	"fmt"

	"fast/internal/tensor"
)

// Graph is a DAG of Ops in topological (construction) order. Builder
// methods panic on shape errors: model builders are compile-time-like
// code, so a malformed model is a programming bug, not a runtime
// condition (the same contract XLA's graph builders use).
type Graph struct {
	Name string
	Ops  []*Op

	outputs []*Op
	block   string
}

// InBlock sets the block label applied to subsequently added ops; it
// returns the graph for chaining. Model builders call this at each layer
// boundary.
func (g *Graph) InBlock(name string) *Graph {
	g.block = name
	return g
}

// NewGraph returns an empty graph.
func NewGraph(name string) *Graph { return &Graph{Name: name} }

func (g *Graph) add(op *Op) *Op {
	op.ID = len(g.Ops)
	op.Block = g.block
	g.Ops = append(g.Ops, op)
	return op
}

func (g *Graph) check(cond bool, format string, args ...any) {
	if !cond {
		panic(fmt.Sprintf("hlo(%s): %s", g.Name, fmt.Sprintf(format, args...)))
	}
}

// Input adds a graph parameter.
func (g *Graph) Input(name string, shape tensor.Shape) *Op {
	g.check(shape.Valid(), "input %s has invalid shape %s", name, shape)
	return g.add(&Op{Name: name, Kind: KInput, Output: shape})
}

// Output marks op as a graph result and returns the marker op.
func (g *Graph) Output(op *Op) *Op {
	out := g.add(&Op{Name: op.Name + ".out", Kind: KOutput, Inputs: []*Op{op}, Output: op.Output})
	g.outputs = append(g.outputs, out)
	return out
}

// Outputs returns the graph result markers.
func (g *Graph) Outputs() []*Op { return g.outputs }

// KVCache adds a persistent key/value-cache source read by a decode
// step. Like Input it carries no compute or weights, but its bytes are
// a distinct traffic class: the tensor survives across decode steps, so
// the residency solver may hold it in global memory instead of
// re-streaming it from DRAM every step. Shape convention is
// [B·heads, ...]: dim 0 carries the batch factor.
func (g *Graph) KVCache(name string, shape tensor.Shape) *Op {
	g.check(shape.Valid(), "kv-cache %s has invalid shape %s", name, shape)
	return g.add(&Op{Name: name, Kind: KKVCache, Output: shape})
}

func convOut(in, k, stride int64, same bool) int64 {
	if same {
		return tensor.CeilDiv(in, stride)
	}
	return (in-k)/stride + 1
}

// Conv2D adds a standard convolution: x is NHWC, of is the output feature
// count. Bias is folded into the weight footprint.
func (g *Graph) Conv2D(name string, x *Op, of, kh, kw, stride int64, same bool) *Op {
	g.check(x.Output.Rank() == 4, "conv2d %s input must be rank 4, got %s", name, x.Output)
	b, h, w, ifc := x.Output.Dim(0), x.Output.Dim(1), x.Output.Dim(2), x.Output.Dim(3)
	oh := convOut(h, kh, stride, same)
	ow := convOut(w, kw, stride, same)
	g.check(oh > 0 && ow > 0, "conv2d %s output collapsed: %s k=%dx%d s=%d", name, x.Output, kh, kw, stride)
	// Bias is folded into the parameter footprint.
	wshape := tensor.NewShape(x.Output.Type, kh*kw*ifc*of+of)
	wshape.Name = name + ".w"
	return g.add(&Op{
		Name: name, Kind: KConv2D, Inputs: []*Op{x},
		Output:  tensor.NewShape(x.Output.Type, b, oh, ow, of),
		Weights: wshape,
		Conv:    &ConvParams{KH: kh, KW: kw, StrideH: stride, StrideW: stride, SamePad: same},
	})
}

// DepthwiseConv2D adds a depthwise convolution (channel multiplier 1).
func (g *Graph) DepthwiseConv2D(name string, x *Op, kh, kw, stride int64, same bool) *Op {
	g.check(x.Output.Rank() == 4, "dwconv %s input must be rank 4, got %s", name, x.Output)
	b, h, w, c := x.Output.Dim(0), x.Output.Dim(1), x.Output.Dim(2), x.Output.Dim(3)
	oh := convOut(h, kh, stride, same)
	ow := convOut(w, kw, stride, same)
	g.check(oh > 0 && ow > 0, "dwconv %s output collapsed", name)
	wshape := tensor.NewShape(x.Output.Type, kh*kw*c+c)
	wshape.Name = name + ".w"
	return g.add(&Op{
		Name: name, Kind: KDepthwiseConv2D, Inputs: []*Op{x},
		Output:  tensor.NewShape(x.Output.Type, b, oh, ow, c),
		Weights: wshape,
		Conv:    &ConvParams{KH: kh, KW: kw, StrideH: stride, StrideW: stride, SamePad: same},
	})
}

// MatMul adds x·W with W a learned [k,n] weight. x may be [..., k]; the
// leading dims form the effective row count.
func (g *Graph) MatMul(name string, x *Op, n int64) *Op {
	r := x.Output.Rank()
	g.check(r >= 1, "matmul %s needs rank>=1 input", name)
	k := x.Output.Dim(r - 1)
	m := x.Output.Elems() / k
	out := x.Output.Clone()
	out.Dims[r-1] = n
	wshape := tensor.NewShape(x.Output.Type, k*n+n)
	wshape.Name = name + ".w"
	return g.add(&Op{
		Name: name, Kind: KMatMul, Inputs: []*Op{x},
		Output:  out,
		Weights: wshape,
		Einsum:  &EinsumParams{Batch: 1, M: m, N: n, K: k},
	})
}

// Einsum adds an activation×activation batched matmul
// C[batch,m,n] = A[batch,m,k] · B[batch,k,n]. Used for attention scores
// and attention-weighted values.
func (g *Graph) Einsum(name string, a, b *Op, batch, m, n, k int64) *Op {
	g.check(a.Output.Elems() == batch*m*k, "einsum %s lhs elems %d != %d", name, a.Output.Elems(), batch*m*k)
	g.check(b.Output.Elems() == batch*k*n, "einsum %s rhs elems %d != %d", name, b.Output.Elems(), batch*k*n)
	return g.add(&Op{
		Name: name, Kind: KEinsum, Inputs: []*Op{a, b},
		Output: tensor.NewShape(a.Output.Type, batch, m, n),
		Einsum: &EinsumParams{Batch: batch, M: m, N: n, K: k, ActAct: true},
	})
}

func (g *Graph) elementwise(name string, kind Kind, opsPerElem float64, ins ...*Op) *Op {
	g.check(len(ins) >= 1, "%s %s needs inputs", kind, name)
	for _, in := range ins[1:] {
		// Operands must match elementwise or be broadcastable: same
		// trailing (feature) dimension and an element count dividing the
		// primary operand's (e.g. a [B,1,1,C] SE gate over [B,H,W,C]).
		sameElems := in.Output.Elems() == ins[0].Output.Elems()
		broadcast := ins[0].Output.Elems()%in.Output.Elems() == 0 &&
			in.Output.Dim(in.Output.Rank()-1) == ins[0].Output.Dim(ins[0].Output.Rank()-1)
		g.check(sameElems || broadcast,
			"%s %s operand mismatch %s vs %s", kind, name, ins[0].Output, in.Output)
	}
	return g.add(&Op{
		Name: name, Kind: kind, Inputs: ins,
		Output:        ins[0].Output.Clone(),
		VecOpsPerElem: opsPerElem,
	})
}

// Add adds elementwise addition (residual/bias).
func (g *Graph) Add(name string, a, b *Op) *Op { return g.elementwise(name, KAdd, 1, a, b) }

// Mul adds elementwise multiplication.
func (g *Graph) Mul(name string, a, b *Op) *Op { return g.elementwise(name, KMul, 1, a, b) }

// Activation adds a pointwise nonlinearity; opsPerElem approximates its
// VPU cost (relu=1, sigmoid≈3, swish≈4, gelu≈6).
func (g *Graph) Activation(name string, x *Op, opsPerElem float64) *Op {
	return g.elementwise(name, KActivation, opsPerElem, x)
}

// BatchNorm adds inference-mode batch normalization: a single fused
// scale-and-shift FMA per element (the moments are folded at compile
// time); the per-channel scale/shift parameters are counted as weights.
func (g *Graph) BatchNorm(name string, x *Op) *Op {
	c := x.Output.Dim(x.Output.Rank() - 1)
	op := g.elementwise(name, KBatchNorm, 1, x)
	op.Weights = tensor.NewShape(x.Output.Type, 2*c)
	op.Weights.Name = name + ".scale_shift"
	return op
}

// LayerNorm adds layer normalization over the trailing dimension.
func (g *Graph) LayerNorm(name string, x *Op) *Op {
	c := x.Output.Dim(x.Output.Rank() - 1)
	op := g.elementwise(name, KLayerNorm, 6, x)
	op.Kind = KLayerNorm
	op.Weights = tensor.NewShape(x.Output.Type, 2*c)
	op.Weights.Name = name + ".gamma_beta"
	return op
}

// Softmax adds a row softmax over the trailing dimension.
func (g *Graph) Softmax(name string, x *Op) *Op {
	// ~5 vector ops per element for the 3-pass algorithm (max, sub, exp,
	// sum, div); the VPU model refines this per algorithm variant.
	return g.elementwise(name, KSoftmax, 5, x)
}

// Pool adds spatial pooling with the given window and stride.
func (g *Graph) Pool(name string, x *Op, k, stride int64, same bool) *Op {
	b, h, w, c := x.Output.Dim(0), x.Output.Dim(1), x.Output.Dim(2), x.Output.Dim(3)
	oh := convOut(h, k, stride, same)
	ow := convOut(w, k, stride, same)
	return g.add(&Op{
		Name: name, Kind: KPool, Inputs: []*Op{x},
		Output:        tensor.NewShape(x.Output.Type, b, oh, ow, c),
		Conv:          &ConvParams{KH: k, KW: k, StrideH: stride, StrideW: stride, SamePad: same},
		VecOpsPerElem: float64(k * k),
	})
}

// GlobalPool adds global average pooling to [B,1,1,C].
func (g *Graph) GlobalPool(name string, x *Op) *Op {
	b, h, w, c := x.Output.Dim(0), x.Output.Dim(1), x.Output.Dim(2), x.Output.Dim(3)
	return g.add(&Op{
		Name: name, Kind: KGlobalPool, Inputs: []*Op{x},
		Output:        tensor.NewShape(x.Output.Type, b, 1, 1, c),
		VecOpsPerElem: float64(h * w),
	})
}

// Reshape adds a free layout change to the given shape (element counts
// must match).
func (g *Graph) Reshape(name string, x *Op, shape tensor.Shape) *Op {
	g.check(shape.Elems() == x.Output.Elems(), "reshape %s elems %d != %d", name, shape.Elems(), x.Output.Elems())
	return g.add(&Op{Name: name, Kind: KReshape, Inputs: []*Op{x}, Output: shape})
}

// Concat concatenates inputs along axis (shapes must agree elsewhere).
func (g *Graph) Concat(name string, axis int, ins ...*Op) *Op {
	g.check(len(ins) >= 2, "concat %s needs >=2 inputs", name)
	out := ins[0].Output.Clone()
	var total int64
	for _, in := range ins {
		total += in.Output.Dim(axis)
	}
	out.Dims[axis] = total
	return g.add(&Op{Name: name, Kind: KConcat, Inputs: ins, Output: out, VecOpsPerElem: 1})
}

// SliceStep extracts time step t from a [B, T, F] sequence, producing
// [B, F]. Costed as a copy of the slice.
func (g *Graph) SliceStep(name string, x *Op, t int64) *Op {
	g.check(x.Output.Rank() == 3, "slice %s input must be rank 3, got %s", name, x.Output)
	g.check(t >= 0 && t < x.Output.Dim(1), "slice %s step %d out of range", name, t)
	return g.add(&Op{
		Name: name, Kind: KSlice, Inputs: []*Op{x},
		Output:        tensor.NewShape(x.Output.Type, x.Output.Dim(0), x.Output.Dim(2)),
		VecOpsPerElem: 1,
	})
}

// Gather adds an embedding lookup: ids is [..., n] integer indices into a
// learned [vocab, hidden] table; the output is bf16 [..., hidden] (the
// trailing ids dim is consumed). The table is counted as weights.
func (g *Graph) Gather(name string, ids *Op, vocab, hidden int64) *Op {
	out := ids.Output.Clone()
	out.Type = tensor.BF16
	out.Dims[len(out.Dims)-1] = hidden
	wshape := tensor.NewShape(tensor.BF16, vocab*hidden)
	wshape.Name = name + ".table"
	return g.add(&Op{
		Name: name, Kind: KGather, Inputs: []*Op{ids},
		Output: out, Weights: wshape, VecOpsPerElem: 1,
	})
}

// LSTMCell adds a fused LSTM step: input [B, in], hidden size h. The gate
// matmuls dominate; the cost model decomposes it into a [B, in+h]×[in+h,
// 4h] matmul plus pointwise gate math.
func (g *Graph) LSTMCell(name string, x *Op, hidden int64) *Op {
	b := x.Output.Dim(0)
	in := x.Output.Dim(x.Output.Rank() - 1)
	wshape := tensor.NewShape(x.Output.Type, (in+hidden)*4*hidden+4*hidden)
	wshape.Name = name + ".w"
	return g.add(&Op{
		Name: name, Kind: KLSTMCell, Inputs: []*Op{x},
		Output:        tensor.NewShape(x.Output.Type, b, hidden),
		Weights:       wshape,
		Einsum:        &EinsumParams{Batch: 1, M: b, N: 4 * hidden, K: in + hidden},
		VecOpsPerElem: 24, // 4 gates: activation (~4 ops) + combine math
	})
}

// Validate checks structural invariants: IDs match positions, inputs
// precede users, shapes are valid.
func (g *Graph) Validate() error {
	for i, op := range g.Ops {
		if op.ID != i {
			return fmt.Errorf("hlo(%s): op %q has ID %d at position %d", g.Name, op.Name, op.ID, i)
		}
		if !op.Output.Valid() {
			return fmt.Errorf("hlo(%s): op %q has invalid output %s", g.Name, op.Name, op.Output)
		}
		for _, in := range op.Inputs {
			if in.ID >= i {
				return fmt.Errorf("hlo(%s): op %q uses input %q that does not precede it", g.Name, op.Name, in.Name)
			}
		}
		if op.Kind.IsMatrix() && op.Kind != KConv2D && op.Kind != KDepthwiseConv2D && op.Einsum == nil {
			return fmt.Errorf("hlo(%s): matrix op %q missing einsum params", g.Name, op.Name)
		}
	}
	return nil
}

// Consumers returns, for each op ID, the IDs of ops that read its output.
func (g *Graph) Consumers() [][]int {
	out := make([][]int, len(g.Ops))
	for _, op := range g.Ops {
		for _, in := range op.Inputs {
			out[in.ID] = append(out[in.ID], op.ID)
		}
	}
	return out
}

// NativeBatch returns the batch dimension of the first input op (1 if the
// graph has no inputs).
func (g *Graph) NativeBatch() int64 {
	for _, op := range g.Ops {
		if op.Kind == KInput {
			return op.Output.Dim(0)
		}
	}
	return 1
}
