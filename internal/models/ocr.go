package models

import (
	"fmt"

	"fast/internal/hlo"
	"fast/internal/tensor"
)

// ocrRPN builds the first stage of the production OCR pipeline described
// in Qin et al. (2019): a standard Mask R-CNN region-proposal network — a
// ResNet-50 backbone over a 640×640 page image, an FPN, and the shared
// RPN head run at every pyramid level. This stage is convolution-heavy
// with large spatial extents and is already TPU-friendly (the paper's
// "worst case for FAST gains" workload).
func ocrRPN(batch int64) *hlo.Graph {
	g := hlo.NewGraph("ocr-rpn")
	g.InBlock("stem")
	x := g.Input("page", tensor.NewShape(tensor.BF16, batch, 640, 640, 3))
	h := g.Conv2D("stem.conv", x, 64, 7, 7, 2, true)
	h = g.BatchNorm("stem.bn", h)
	h = g.Activation("stem.relu", h, 1)
	h = g.Pool("stem.maxpool", h, 3, 2, true)

	// ResNet-50 backbone (v1-style blocks; cost-equivalent to v2),
	// keeping the C2..C5 stage outputs for the FPN.
	var stageOut []*hlo.Op
	for si, st := range resNetStages {
		for b := int64(0); b < st.blocks; b++ {
			name := fmt.Sprintf("backbone%d_block%d", si+2, b)
			g.InBlock(name)
			stride := int64(1)
			if b == 0 {
				stride = st.stride
			}
			h = bottleneckV2(g, name, h, st.mid, st.out, stride)
		}
		stageOut = append(stageOut, h)
	}

	// FPN: 1×1 lateral convs onto 256 channels plus 3×3 output convs.
	// Upsampling is modeled as a transpose-cost data movement.
	var pyramids []*hlo.Op
	for i := len(stageOut) - 1; i >= 0; i-- {
		name := fmt.Sprintf("fpn_p%d", i+2)
		g.InBlock(name)
		lat := g.Conv2D(name+".lateral", stageOut[i], 256, 1, 1, 1, true)
		out := g.Conv2D(name+".output", lat, 256, 3, 3, 1, true)
		pyramids = append(pyramids, out)
	}

	// RPN head: shared 3×3 conv then objectness (3 anchors) and box
	// regression (12) sibling 1×1 convs at every level.
	for i, p := range pyramids {
		name := fmt.Sprintf("rpn_p%d", len(pyramids)-i+1)
		g.InBlock(name)
		head := g.Conv2D(name+".conv", p, 256, 3, 3, 1, true)
		head = g.Activation(name+".relu", head, 1)
		obj := g.Conv2D(name+".objectness", head, 3, 1, 1, 1, true)
		box := g.Conv2D(name+".boxes", head, 12, 1, 1, 1, true)
		g.Output(obj)
		g.Output(box)
	}
	return g
}

// ocrRecognizer builds the LSTM-based text-line recognizer stage of the
// OCR pipeline: a small convolutional feature extractor over a 32×320
// line crop followed by a 2-layer bidirectional LSTM over 80 time steps
// and a character classifier. Sequential LSTM steps with small matmuls
// make it latency- rather than throughput-bound.
func ocrRecognizer(batch int64) *hlo.Graph {
	const (
		steps  = 80
		hidden = 256
		chars  = 128 // charset size
	)
	g := hlo.NewGraph("ocr-recognizer")
	g.InBlock("encoder")
	x := g.Input("line", tensor.NewShape(tensor.BF16, batch, 32, 320, 3))
	h := g.Conv2D("encoder.conv1", x, 64, 3, 3, 1, true)
	h = g.BatchNorm("encoder.bn1", h)
	h = g.Activation("encoder.relu1", h, 1)
	h = g.Pool("encoder.pool1", h, 2, 2, true)
	h = g.Conv2D("encoder.conv2", h, 128, 3, 3, 1, true)
	h = g.BatchNorm("encoder.bn2", h)
	h = g.Activation("encoder.relu2", h, 1)
	h = g.Pool("encoder.pool2", h, 2, 2, true)
	h = g.Conv2D("encoder.conv3", h, 256, 3, 3, 1, true)
	h = g.BatchNorm("encoder.bn3", h)
	h = g.Activation("encoder.relu3", h, 1)
	// Collapse height; the width axis becomes the sequence: [B, 80, 8·256].
	feat := g.Reshape("encoder.to-seq", h,
		tensor.NewShape(tensor.BF16, batch, steps, 8*256))

	// Two stacked bidirectional LSTM layers, unrolled over time — the form
	// the inference XLA graph takes. Every time step of a (layer,
	// direction) pair reuses one set of cell weights.
	stepIn := make([]*hlo.Op, steps)
	for t := 0; t < steps; t++ {
		stepIn[t] = g.SliceStep(fmt.Sprintf("encoder.step%02d", t), feat, int64(t))
	}
	for layer := 0; layer < 2; layer++ {
		fwd := make([]*hlo.Op, steps)
		bwd := make([]*hlo.Op, steps)
		for _, dir := range []string{"fwd", "bwd"} {
			g.InBlock(fmt.Sprintf("lstm%d_%s", layer, dir))
			key := fmt.Sprintf("lstm%d.%s.w", layer, dir)
			for i := 0; i < steps; i++ {
				t := i
				if dir == "bwd" {
					t = steps - 1 - i
				}
				cell := g.LSTMCell(fmt.Sprintf("lstm%d.%s.t%02d", layer, dir, t), stepIn[t], hidden)
				cell.WeightKey = key
				if dir == "fwd" {
					fwd[t] = cell
				} else {
					bwd[t] = cell
				}
			}
		}
		g.InBlock(fmt.Sprintf("lstm%d_merge", layer))
		for t := 0; t < steps; t++ {
			stepIn[t] = g.Concat(fmt.Sprintf("lstm%d.concat.t%02d", layer, t), 1, fwd[t], bwd[t])
		}
	}

	g.InBlock("classifier")
	seq := g.Concat("classifier.stack", 0, stepIn...)
	logits := g.MatMul("classifier.logits", seq, chars)
	sm := g.Softmax("classifier.softmax", logits)
	g.Output(sm)
	return g
}
