package models

import (
	"fmt"

	"fast/internal/hlo"
	"fast/internal/tensor"
)

// bottleneckV2 appends one pre-activation bottleneck block (He et al.
// 2016, "Identity Mappings in Deep Residual Networks"): BN→ReLU precede
// each conv; the shortcut is projected on the first block of a stage.
func bottleneckV2(g *hlo.Graph, name string, x *hlo.Op, midCh, outCh, stride int64) *hlo.Op {
	pre := g.BatchNorm(name+".preact.bn", x)
	pre = g.Activation(name+".preact.relu", pre, 1)

	shortcut := x
	if x.Output.Dim(3) != outCh || stride != 1 {
		shortcut = g.Conv2D(name+".shortcut", pre, outCh, 1, 1, stride, true)
	}

	h := g.Conv2D(name+".conv1", pre, midCh, 1, 1, 1, true)
	h = g.BatchNorm(name+".bn1", h)
	h = g.Activation(name+".relu1", h, 1)
	h = g.Conv2D(name+".conv2", h, midCh, 3, 3, stride, true)
	h = g.BatchNorm(name+".bn2", h)
	h = g.Activation(name+".relu2", h, 1)
	h = g.Conv2D(name+".conv3", h, outCh, 1, 1, 1, true)
	return g.Add(name+".residual", h, shortcut)
}

// resNetStages is the ResNet-50 stage table: (mid channels, out channels,
// block count, first-block stride).
var resNetStages = []struct {
	mid, out, blocks, stride int64
}{
	{64, 256, 3, 1},
	{128, 512, 4, 2},
	{256, 1024, 6, 2},
	{512, 2048, 3, 2},
}

// resNet50v2 builds ResNet-50v2 for 224×224 ImageNet inference in bf16.
func resNet50v2(batch int64) *hlo.Graph {
	g := hlo.NewGraph("resnet50v2")
	g.InBlock("stem")
	x := g.Input("images", tensor.NewShape(tensor.BF16, batch, 224, 224, 3))
	h := g.Conv2D("stem.conv", x, 64, 7, 7, 2, true)
	h = g.Pool("stem.maxpool", h, 3, 2, true)

	for si, st := range resNetStages {
		for b := int64(0); b < st.blocks; b++ {
			name := fmt.Sprintf("stage%d_block%d", si+1, b)
			g.InBlock(name)
			stride := int64(1)
			if b == 0 {
				stride = st.stride
			}
			h = bottleneckV2(g, name, h, st.mid, st.out, stride)
		}
	}

	g.InBlock("head")
	h = g.BatchNorm("head.bn", h)
	h = g.Activation("head.relu", h, 1)
	h = g.GlobalPool("head.pool", h)
	h = g.Reshape("head.flatten", h, tensor.NewShape(tensor.BF16, batch, 2048))
	h = g.MatMul("head.logits", h, 1000)
	g.Output(h)
	return g
}
