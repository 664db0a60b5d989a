package models

import (
	"strings"
	"testing"

	"fast/internal/hlo"
	"fast/internal/tensor"
)

func TestAllWorkloadsValidate(t *testing.T) {
	for _, name := range FullSuite() {
		g := MustBuild(name, 1)
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if len(g.Outputs()) == 0 {
			t.Errorf("%s: no outputs", name)
		}
	}
}

func TestEfficientNetWeightFootprints(t *testing.T) {
	// Paper Table 1 gives bf16 weight sizes; our programmatic graphs must
	// land in the same ballpark (published EfficientNet parameter counts:
	// B0≈5.3M, B7≈66M → 10.1 MiB and 126 MiB in bf16). Allow ±25% to
	// absorb accounting differences (biases, BN folding).
	want := map[int]float64{0: 10.1, 3: 23, 7: 126}
	for v, wantMiB := range want {
		g := EfficientNet(v, 1)
		got := tensor.MiB(hlo.WeightBytes(g))
		if got < wantMiB*0.75 || got > wantMiB*1.25 {
			t.Errorf("B%d weights = %.1f MiB, want ≈%.1f MiB", v, got, wantMiB)
		}
	}
}

func TestEfficientNetWorkingSetsGrow(t *testing.T) {
	// Paper Table 1: working sets grow monotonically B0→B7, from ~2.9 MiB
	// to ~41 MiB at batch 1.
	prev := int64(0)
	for v := 0; v <= 7; v++ {
		g := EfficientNet(v, 1)
		ws := hlo.MaxWorkingSetBytes(g)
		if ws < prev {
			t.Errorf("B%d working set %d < B%d %d", v, ws, v-1, prev)
		}
		prev = ws
	}
	b0 := tensor.MiB(hlo.MaxWorkingSetBytes(EfficientNet(0, 1)))
	if b0 < 1 || b0 > 8 {
		t.Errorf("B0 working set = %.1f MiB, want a few MiB", b0)
	}
}

func TestEfficientNetDepthwiseFLOPShare(t *testing.T) {
	// Paper Table 2: depthwise convolutions are ~5% of B7 FLOPs while
	// Conv2D is ~95%.
	s := hlo.Stats(EfficientNet(7, 1))
	share := float64(s.DepthwiseFLOPs) / float64(s.FLOPs)
	if share < 0.02 || share > 0.10 {
		t.Errorf("B7 depthwise FLOP share = %.3f, want ~0.05", share)
	}
}

func TestEfficientNetScaling(t *testing.T) {
	// Compound scaling: FLOPs must grow strictly with variant, roughly 2×
	// per step of the compound coefficient.
	prev := int64(0)
	for v := 0; v <= 7; v++ {
		f := hlo.Stats(EfficientNet(v, 1)).FLOPs
		if f <= prev {
			t.Errorf("B%d FLOPs %d not > B%d %d", v, f, v-1, prev)
		}
		prev = f
	}
	b0 := float64(hlo.Stats(EfficientNet(0, 1)).FLOPs)
	// Published B0 ≈ 0.39 GFLOPs (0.78 GFLOP with 2×MAC convention).
	if b0 < 0.5e9 || b0 > 1.2e9 {
		t.Errorf("B0 FLOPs = %.2e, want ≈0.78e9 (2/MAC)", b0)
	}
	b7 := float64(hlo.Stats(EfficientNet(7, 1)).FLOPs)
	if r := b7 / b0; r < 40 || r > 130 {
		t.Errorf("B7/B0 FLOP ratio = %.0f, want ~95 (37G vs 0.39G MACs)", r)
	}
}

func TestRoundFilters(t *testing.T) {
	cases := []struct {
		f    int64
		w    float64
		want int64
	}{
		{32, 1.0, 32},
		{32, 2.0, 64},
		{32, 1.1, 32}, // 35.2 → 32 (>=90% of 35.2=31.7)
		{24, 1.4, 32}, // 33.6 → 32
		{16, 1.8, 32}, // 28.8 → 32 (round 28.8+4=32.8/8*8=32)
		{3, 1.0, 3},   // width 1 passthrough
	}
	for _, c := range cases {
		if got := roundFilters(c.f, c.w); got != c.want {
			t.Errorf("roundFilters(%d, %.1f) = %d, want %d", c.f, c.w, got, c.want)
		}
	}
}

func TestRoundRepeats(t *testing.T) {
	if roundRepeats(4, 3.1) != 13 {
		t.Errorf("roundRepeats(4, 3.1) = %d, want 13", roundRepeats(4, 3.1))
	}
	if roundRepeats(1, 1.0) != 1 {
		t.Errorf("roundRepeats(1, 1.0) = %d, want 1", roundRepeats(1, 1.0))
	}
}

func TestResNet50Weights(t *testing.T) {
	// Published ResNet-50 ≈ 25.6M params → ~49 MiB bf16.
	got := tensor.MiB(hlo.WeightBytes(resNet50v2(1)))
	if got < 40 || got > 60 {
		t.Errorf("ResNet50 weights = %.1f MiB, want ≈49", got)
	}
	// Published ≈ 4.1 GMACs → 8.2 GFLOPs.
	f := float64(hlo.Stats(resNet50v2(1)).FLOPs)
	if f < 7e9 || f > 10e9 {
		t.Errorf("ResNet50 FLOPs = %.2e, want ≈8.2e9", f)
	}
}

func TestBERTStructure(t *testing.T) {
	g := bert(bertBaseConfig(1, 128))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Published BERT-Base ≈ 110M params → ~210 MiB bf16.
	got := tensor.MiB(hlo.WeightBytes(g))
	if got < 180 || got > 240 {
		t.Errorf("BERT-Base weights = %.1f MiB, want ≈210", got)
	}
	// Attention einsums are act×act.
	actact := 0
	for _, op := range g.Ops {
		if op.Kind == hlo.KEinsum && op.Einsum.ActAct {
			actact++
		}
	}
	if actact != 24 { // 2 per layer × 12 layers
		t.Errorf("act×act einsums = %d, want 24", actact)
	}
}

func TestBERTQuadraticAttention(t *testing.T) {
	// Softmax + attention FLOPs scale quadratically with sequence length;
	// QKV/FFN scale linearly (§4.3).
	attnFLOPs := func(seq int64) (attn, linear int64) {
		g := bert(bertBaseConfig(1, seq))
		for _, op := range g.Ops {
			f := hlo.FLOPs(op)
			switch {
			case strings.Contains(op.Name, "attn.scores"),
				strings.Contains(op.Name, "attn.context"),
				strings.Contains(op.Name, "attn.softmax"):
				attn += f
			case strings.Contains(op.Name, "qkv"), strings.Contains(op.Name, "ffn"):
				linear += f
			}
		}
		return
	}
	a128, l128 := attnFLOPs(128)
	a1024, l1024 := attnFLOPs(1024)
	if r := float64(a1024) / float64(a128); r < 50 || r > 80 {
		t.Errorf("attention FLOP ratio 1024/128 = %.0f, want ≈64 (quadratic)", r)
	}
	if r := float64(l1024) / float64(l128); r < 7 || r > 9 {
		t.Errorf("linear FLOP ratio 1024/128 = %.0f, want 8 (linear)", r)
	}
}

func TestOCRRecognizerWeightSharing(t *testing.T) {
	g := ocrRecognizer(1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// 4 shared LSTM weight sets (2 layers × 2 directions); total model
	// weights must be far below the sum over unrolled steps.
	var unshared, shared int64
	for _, op := range g.Ops {
		if op.Kind == hlo.KLSTMCell {
			unshared += op.WeightBytes()
		}
	}
	shared = hlo.WeightBytes(g)
	if shared*10 > unshared {
		t.Errorf("weight sharing ineffective: shared=%d unrolled-sum=%d", shared, unshared)
	}
}

func TestOCRRPNOutputs(t *testing.T) {
	g := ocrRPN(1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Two outputs (objectness + boxes) per pyramid level, 4 levels.
	if len(g.Outputs()) != 8 {
		t.Errorf("RPN outputs = %d, want 8", len(g.Outputs()))
	}
}

func TestRegistry(t *testing.T) {
	if _, err := Build("nonexistent", 1); err == nil {
		t.Error("expected error for unknown workload")
	}
	if _, err := Build("efficientnet-b9", 1); err == nil {
		t.Error("expected error for B9")
	}
	if _, err := Build("bert-0", 1); err == nil {
		t.Error("expected error for bert-0")
	}
	g, err := Build("bert-512", 1)
	if err != nil || g == nil {
		t.Fatalf("bert-512: %v", err)
	}
	for _, n := range Names() {
		if _, err := Build(n, 1); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if len(MultiWorkloadSuite()) != 5 {
		t.Error("multi-workload suite must have 5 entries")
	}
}

func TestBatchScaling(t *testing.T) {
	for _, name := range []string{"efficientnet-b0", "resnet50", "bert-128"} {
		g1 := MustBuild(name, 1)
		g8 := MustBuild(name, 8)
		if hlo.Stats(g8).FLOPs != 8*hlo.Stats(g1).FLOPs {
			t.Errorf("%s: FLOPs not linear in batch", name)
		}
		if hlo.WeightBytes(g8) != hlo.WeightBytes(g1) {
			t.Errorf("%s: weights scale with batch", name)
		}
	}
}

func TestMobileNetV2(t *testing.T) {
	g := mobileNetV2(1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Published MobileNetV2: ≈3.5M params (~6.7 MiB bf16), ≈0.3 GMACs
	// (0.6 GFLOPs at 2/MAC).
	if got := tensor.MiB(hlo.WeightBytes(g)); got < 5 || got > 9 {
		t.Errorf("MobileNetV2 weights = %.1f MiB, want ≈6.7", got)
	}
	f := float64(hlo.Stats(g).FLOPs)
	if f < 0.45e9 || f > 0.9e9 {
		t.Errorf("MobileNetV2 FLOPs = %.2e, want ≈0.6e9", f)
	}
	// Heavier on depthwise share than ResNet, like EfficientNet.
	s := hlo.Stats(g)
	if s.DepthwiseFLOPs == 0 {
		t.Error("MobileNetV2 must contain depthwise convolutions")
	}
}
