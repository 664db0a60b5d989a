package vpu

import (
	"testing"

	"fast/internal/arch"
	"fast/internal/hlo"
	"fast/internal/tensor"
)

func TestSoftmaxTwoPassTradesComputeForTraffic(t *testing.T) {
	// §5.6: two-pass eliminates memory passes but up to 2N extra exps.
	three := softmaxCost(1024, 1024, ThreePass, false, 2)
	two := softmaxCost(1024, 1024, TwoPass, false, 2)
	if two.ExtraDRAMBytes >= three.ExtraDRAMBytes {
		t.Errorf("two-pass DRAM %d must be < three-pass %d", two.ExtraDRAMBytes, three.ExtraDRAMBytes)
	}
	if two.VectorOps <= three.VectorOps {
		t.Errorf("two-pass vector ops %.0f must exceed three-pass %.0f", two.VectorOps, three.VectorOps)
	}
	// Extra exps bounded by ~2N·expCost plus bookkeeping.
	n := float64(1024 * 1024)
	if two.VectorOps-three.VectorOps > n*(2*expCost+3) {
		t.Error("two-pass overhead exceeds the 2N-exponential bound")
	}
}

func TestSoftmaxOnChipHasNoExtraTraffic(t *testing.T) {
	for _, alg := range []SoftmaxAlgorithm{ThreePass, TwoPass} {
		c := softmaxCost(128, 128, alg, true, 2)
		if c.ExtraDRAMBytes != 0 {
			t.Errorf("%v: on-chip softmax should add no DRAM traffic", alg)
		}
	}
}

func TestSoftmaxUtilizationTiny(t *testing.T) {
	// §4.3: softmax runs at <1% of peak chip FLOPs on TPU-v3. A BERT
	// seq-1024 softmax (12 heads): time on VPU vs the chip's peak
	// implies compute utilization ≈ vectorOps/time/peakFLOPs < 1%.
	tpu := arch.TPUv3()
	cost := softmaxCost(12*1024, 1024, ThreePass, false, 2)
	secs := Time(cost.VectorOps, Peak(tpu))
	elems := float64(12 * 1024 * 1024)
	util := (elems * 5) / (secs * tpu.PeakFLOPs() / float64(tpu.Cores))
	if util > 0.02 {
		t.Errorf("softmax pseudo-utilization = %.4f, want ≪ peak (paper: <1%%)", util)
	}
}

func TestOpCost(t *testing.T) {
	g := hlo.NewGraph("t")
	x := g.Input("x", tensor.NewShape(tensor.BF16, 4, 128, 768))
	sm := g.Softmax("sm", x)
	mm := g.MatMul("mm", x, 64)
	re := g.Reshape("re", x, tensor.NewShape(tensor.BF16, 4*128, 768))
	act := g.Activation("act", x, 4)

	if c := OpCost(mm, ThreePass, true); c.VectorOps != 0 {
		t.Error("matrix op must have zero VPU cost")
	}
	if c := OpCost(re, ThreePass, true); c.VectorOps != 0 {
		t.Error("reshape must be free")
	}
	if c := OpCost(act, ThreePass, true); c.VectorOps != 4*float64(x.Output.Elems()) {
		t.Errorf("activation cost = %f", c.VectorOps)
	}
	smCost := OpCost(sm, ThreePass, false)
	if smCost.VectorOps <= 0 || smCost.ExtraDRAMBytes <= 0 {
		t.Errorf("softmax cost = %+v", smCost)
	}
}

func TestTimeScalesWithVPUWidth(t *testing.T) {
	small := arch.FASTLarge()
	wide := small.Clone("wide")
	wide.VectorMult = 4
	ops := 1e9
	if Time(ops, Peak(wide)) >= Time(ops, Peak(small)) {
		t.Error("wider VPU must be faster")
	}
	ratio := Time(ops, Peak(small)) / Time(ops, Peak(wide))
	if ratio < 3.9 || ratio > 4.1 {
		t.Errorf("4x lanes should give ~4x speedup, got %.2f", ratio)
	}
}

func TestLSTMGateOps(t *testing.T) {
	g := hlo.NewGraph("t")
	x := g.Input("x", tensor.NewShape(tensor.BF16, 4, 256))
	cell := g.LSTMCell("c", x, 512)
	if LSTMGateOps(cell) != cell.VecOpsPerElem*float64(cell.Output.Elems()) {
		t.Error("gate ops mismatch")
	}
	if LSTMGateOps(x) != 0 {
		t.Error("non-LSTM op must have zero gate ops")
	}
}

func TestAlgorithmString(t *testing.T) {
	if ThreePass.String() != "three-pass" || TwoPass.String() != "two-pass" {
		t.Error("algorithm names wrong")
	}
}
