package models

import (
	"fmt"

	"fast/internal/hlo"
	"fast/internal/tensor"
)

// mobileNetV2Stages is the inverted-residual table from Sandler et al.
// (2018): expansion t, output channels c, repeats n, first stride s.
var mobileNetV2Stages = []struct {
	t, c, n, s int64
}{
	{1, 16, 1, 1},
	{6, 24, 2, 2},
	{6, 32, 3, 2},
	{6, 64, 4, 2},
	{6, 96, 3, 1},
	{6, 160, 3, 2},
	{6, 320, 1, 1},
}

// mobileNetV2 builds MobileNetV2 (224×224, width 1.0) in bf16 — the
// architecture that introduced the inverted-residual (MBConv) block the
// paper's EfficientNet analysis builds on. Unlike EfficientNet it has no
// squeeze-excite blocks and uses ReLU6, so it isolates the pure
// depthwise-separable bottleneck.
func mobileNetV2(batch int64) *hlo.Graph {
	g := hlo.NewGraph("mobilenetv2")
	g.InBlock("stem")
	x := g.Input("images", tensor.NewShape(tensor.BF16, batch, 224, 224, 3))
	h := g.Conv2D("stem.conv", x, 32, 3, 3, 2, true)
	h = g.BatchNorm("stem.bn", h)
	h = relu6.apply(g, "stem", h)

	for si, st := range mobileNetV2Stages {
		for rep := int64(0); rep < st.n; rep++ {
			name := fmt.Sprintf("bottleneck%d_%d", si+1, rep)
			g.InBlock(name)
			stride := int64(1)
			if rep == 0 {
				stride = st.s
			}
			h = mbConv(g, name, h, mbBlockSpec{expand: st.t, kernel: 3}, st.c, stride, relu6, false)
		}
	}

	g.InBlock("head")
	h = g.Conv2D("head.conv", h, 1280, 1, 1, 1, true)
	h = g.BatchNorm("head.bn", h)
	h = relu6.apply(g, "head", h)
	h = g.GlobalPool("head.pool", h)
	h = g.Reshape("head.flatten", h, tensor.NewShape(tensor.BF16, batch, 1280))
	h = g.MatMul("head.logits", h, 1000)
	g.Output(h)
	return g
}
