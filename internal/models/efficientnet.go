// Package models is the workload zoo: programmatic HLO-graph builders for
// every model the paper evaluates (EfficientNet-B0..B7, ResNet-50v2,
// BERT-Base at arbitrary sequence length, and the two OCR pipeline
// stages), plus MobileNetV2 and the GPT-2-small prefill and decode
// serving phases. Shapes follow the published architectures so FLOP and
// byte accounting matches the real XLA graphs to first order.
package models

import (
	"fmt"
	"math"

	"fast/internal/hlo"
	"fast/internal/tensor"
)

// activation is a pointwise nonlinearity: its op-name suffix and its
// VPU op count per element.
type activation struct {
	name string
	cost float64
}

var (
	// swish is x·sigmoid(x): a table-lookup sigmoid (2 ops) plus the
	// multiply.
	swish = activation{"swish", 3}
	relu6 = activation{"relu6", 1}
)

// apply appends the activation to x as op "<name>.<activation>".
func (a activation) apply(g *hlo.Graph, name string, x *hlo.Op) *hlo.Op {
	return g.Activation(name+"."+a.name, x, a.cost)
}

// mbBlockSpec is one stage of the EfficientNet-B0 baseline.
type mbBlockSpec struct {
	expand  int64 // expansion ratio
	kernel  int64
	stride  int64
	filters int64 // output channels before width scaling
	repeats int64 // layer count before depth scaling
}

// efficientNetB0Blocks is the MBConv stage table from Tan & Le (2019).
var efficientNetB0Blocks = []mbBlockSpec{
	{expand: 1, kernel: 3, stride: 1, filters: 16, repeats: 1},
	{expand: 6, kernel: 3, stride: 2, filters: 24, repeats: 2},
	{expand: 6, kernel: 5, stride: 2, filters: 40, repeats: 2},
	{expand: 6, kernel: 3, stride: 2, filters: 80, repeats: 3},
	{expand: 6, kernel: 5, stride: 1, filters: 112, repeats: 3},
	{expand: 6, kernel: 5, stride: 2, filters: 192, repeats: 4},
	{expand: 6, kernel: 3, stride: 1, filters: 320, repeats: 1},
}

// effNetScaling holds the compound-scaling coefficients per variant:
// width multiplier, depth multiplier, input resolution.
var effNetScaling = [8]struct {
	width float64
	depth float64
	res   int64
}{
	{1.0, 1.0, 224}, // B0
	{1.0, 1.1, 240}, // B1
	{1.1, 1.2, 260}, // B2
	{1.2, 1.4, 300}, // B3
	{1.4, 1.8, 380}, // B4
	{1.6, 2.2, 456}, // B5
	{1.8, 2.6, 528}, // B6
	{2.0, 3.1, 600}, // B7
}

// EfficientNetAccuracy is the published ImageNet top-1 accuracy per
// variant (Tan & Le 2019, Table 2). Used by the Figure 2 reproduction;
// FAST does not change model accuracy.
var EfficientNetAccuracy = [8]float64{77.1, 79.1, 80.1, 81.6, 82.9, 83.6, 84.0, 84.3}

// roundFilters applies the EfficientNet width-scaling rule: scale, round
// to the nearest multiple of 8, and never round down below 90%.
func roundFilters(filters int64, width float64) int64 {
	if width == 1.0 {
		return filters
	}
	const divisor = 8
	f := width * float64(filters)
	rounded := int64(f+float64(divisor)/2) / divisor * divisor
	if rounded < divisor {
		rounded = divisor
	}
	if float64(rounded) < 0.9*f {
		rounded += divisor
	}
	return rounded
}

// roundRepeats applies depth scaling: ceil(depth · repeats).
func roundRepeats(repeats int64, depth float64) int64 {
	return int64(math.Ceil(depth * float64(repeats)))
}

// seBlock appends a squeeze-and-excitation block: global pool → reduce FC
// → swish → expand FC → sigmoid → channelwise multiply. seCh is the
// bottleneck width (¼ of the block's unexpanded input channels).
func seBlock(g *hlo.Graph, name string, x *hlo.Op, seCh int64) *hlo.Op {
	pooled := g.GlobalPool(name+".se.squeeze", x)
	reduce := g.Conv2D(name+".se.reduce", pooled, seCh, 1, 1, 1, true)
	reduce = swish.apply(g, name+".se", reduce)
	expand := g.Conv2D(name+".se.expand", reduce, x.Output.Dim(3), 1, 1, 1, true)
	gate := g.Activation(name+".se.sigmoid", expand, 3)
	// Broadcast multiply of [B,1,1,C] gate over [B,H,W,C] activations: the
	// graph models it as an elementwise multiply on x's shape.
	return g.Mul(name+".se.excite", x, gate)
}

// mbConv appends one inverted-residual block (MBConv): an optional 1×1
// expansion, the depthwise convolution, squeeze-excite when se is set,
// and the 1×1 projection, with act after the first two. EfficientNet
// uses swish with squeeze-excite; MobileNetV2 uses ReLU6 without.
func mbConv(g *hlo.Graph, name string, x *hlo.Op, spec mbBlockSpec, outCh, stride int64, act activation, se bool) *hlo.Op {
	inCh := x.Output.Dim(3)
	block := x
	expanded := inCh * spec.expand
	if spec.expand != 1 {
		block = g.Conv2D(name+".expand", block, expanded, 1, 1, 1, true)
		block = g.BatchNorm(name+".expand.bn", block)
		block = act.apply(g, name+".expand", block)
	}
	block = g.DepthwiseConv2D(name+".dwconv", block, spec.kernel, spec.kernel, stride, true)
	block = g.BatchNorm(name+".dwconv.bn", block)
	block = act.apply(g, name+".dwconv", block)
	if se {
		block = seBlock(g, name, block, max(inCh/4, 1))
	}
	block = g.Conv2D(name+".project", block, outCh, 1, 1, 1, true)
	block = g.BatchNorm(name+".project.bn", block)
	if stride == 1 && inCh == outCh {
		block = g.Add(name+".residual", block, x)
	}
	return block
}

// EfficientNet builds EfficientNet-B<variant> (0..7) at the given batch
// size in bf16.
func EfficientNet(variant int, batch int64) *hlo.Graph {
	if variant < 0 || variant > 7 {
		panic(fmt.Sprintf("models: EfficientNet variant B%d out of range", variant))
	}
	sc := effNetScaling[variant]
	g := hlo.NewGraph(fmt.Sprintf("efficientnet-b%d", variant))

	g.InBlock("stem")
	x := g.Input("images", tensor.NewShape(tensor.BF16, batch, sc.res, sc.res, 3))
	stemCh := roundFilters(32, sc.width)
	h := g.Conv2D("stem.conv", x, stemCh, 3, 3, 2, true)
	h = g.BatchNorm("stem.bn", h)
	h = swish.apply(g, "stem", h)

	for si, spec := range efficientNetB0Blocks {
		outCh := roundFilters(spec.filters, sc.width)
		repeats := roundRepeats(spec.repeats, sc.depth)
		for r := int64(0); r < repeats; r++ {
			blockName := fmt.Sprintf("mbconv%d_%d", si+1, r)
			g.InBlock(blockName)
			stride := spec.stride
			if r > 0 {
				stride = 1
			}
			h = mbConv(g, blockName, h, spec, outCh, stride, swish, true)
		}
	}

	g.InBlock("head")
	headCh := roundFilters(1280, sc.width)
	h = g.Conv2D("head.conv", h, headCh, 1, 1, 1, true)
	h = g.BatchNorm("head.bn", h)
	h = swish.apply(g, "head", h)
	h = g.GlobalPool("head.pool", h)
	h = g.Reshape("head.flatten", h, tensor.NewShape(tensor.BF16, batch, headCh))
	h = g.MatMul("head.logits", h, 1000)
	g.Output(h)
	return g
}
