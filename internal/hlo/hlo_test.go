package hlo

import (
	"testing"

	"fast/internal/tensor"
)

// tinyCNN builds input→conv→bn→act→dwconv→bn→act→conv1x1→add(residual).
func tinyCNN() *Graph {
	g := NewGraph("tiny")
	g.InBlock("stem")
	in := g.Input("x", tensor.NewShape(tensor.BF16, 1, 8, 8, 16))
	c := g.Conv2D("conv1", in, 32, 3, 3, 1, true)
	c = g.BatchNorm("bn1", c)
	c = g.Activation("act1", c, 4)
	g.InBlock("block1")
	d := g.DepthwiseConv2D("dw1", c, 3, 3, 1, true)
	d = g.BatchNorm("bn2", d)
	d = g.Activation("act2", d, 4)
	p := g.Conv2D("pw1", d, 32, 1, 1, 1, true)
	s := g.Add("res", p, c)
	g.Output(s)
	return g
}

func TestGraphValidate(t *testing.T) {
	g := tinyCNN()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConvShapes(t *testing.T) {
	g := NewGraph("shapes")
	in := g.Input("x", tensor.NewShape(tensor.BF16, 2, 224, 224, 3))
	c := g.Conv2D("conv", in, 32, 3, 3, 2, true)
	want := tensor.NewShape(tensor.BF16, 2, 112, 112, 32)
	if !c.Output.Equal(want) {
		t.Errorf("conv output = %s, want %s", c.Output, want)
	}
	v := g.Conv2D("valid", in, 8, 7, 7, 1, false)
	if v.Output.Dim(1) != 218 || v.Output.Dim(2) != 218 {
		t.Errorf("VALID conv output = %s", v.Output)
	}
}

func TestConvWeightsIncludeBias(t *testing.T) {
	g := NewGraph("w")
	in := g.Input("x", tensor.NewShape(tensor.BF16, 1, 8, 8, 16))
	c := g.Conv2D("conv", in, 32, 3, 3, 1, true)
	want := int64(3*3*16*32+32) * 2
	if c.WeightBytes() != want {
		t.Errorf("conv weight bytes = %d, want %d", c.WeightBytes(), want)
	}
}

func TestConvFLOPs(t *testing.T) {
	g := NewGraph("flops")
	in := g.Input("x", tensor.NewShape(tensor.BF16, 1, 8, 8, 16))
	c := g.Conv2D("conv", in, 32, 3, 3, 1, true)
	want := int64(2 * 1 * 8 * 8 * 32 * 3 * 3 * 16)
	if got := FLOPs(c); got != want {
		t.Errorf("conv FLOPs = %d, want %d", got, want)
	}
	d := g.DepthwiseConv2D("dw", c, 3, 3, 1, true)
	wantDW := int64(2 * 1 * 8 * 8 * 32 * 3 * 3)
	if got := FLOPs(d); got != wantDW {
		t.Errorf("dwconv FLOPs = %d, want %d", got, wantDW)
	}
	// Depthwise separable vs full conv: the paper cites 8-9× FLOP savings
	// for 3x3 kernels. For C→C channels the ratio is 9C/(9+C); check at
	// C=128 where it should be ≈8.4.
	g2 := NewGraph("ratio")
	x := g2.Input("x", tensor.NewShape(tensor.BF16, 1, 14, 14, 128))
	full := float64(FLOPs(g2.Conv2D("full", x, 128, 3, 3, 1, true)))
	dw := g2.DepthwiseConv2D("dw", x, 3, 3, 1, true)
	sep := float64(FLOPs(dw) + FLOPs(g2.Conv2D("pw", dw, 128, 1, 1, 1, true)))
	if ratio := full / sep; ratio < 8 || ratio > 9 {
		t.Errorf("conv/dsconv FLOP ratio = %.2f, want ~8-9", ratio)
	}
}

func TestMatMulFLOPs(t *testing.T) {
	g := NewGraph("mm")
	in := g.Input("x", tensor.NewShape(tensor.BF16, 4, 128, 768))
	m := g.MatMul("proj", in, 3072)
	if m.Einsum.M != 4*128 || m.Einsum.K != 768 || m.Einsum.N != 3072 {
		t.Errorf("matmul einsum = %+v", m.Einsum)
	}
	want := int64(2 * 4 * 128 * 768 * 3072)
	if got := FLOPs(m); got != want {
		t.Errorf("matmul FLOPs = %d, want %d", got, want)
	}
}

func TestEinsumActAct(t *testing.T) {
	g := NewGraph("attn")
	q := g.Input("q", tensor.NewShape(tensor.BF16, 12, 128, 64))
	k := g.Input("k", tensor.NewShape(tensor.BF16, 12, 64, 128))
	s := g.Einsum("qk", q, k, 12, 128, 128, 64)
	if !s.Einsum.ActAct {
		t.Error("einsum should be act×act")
	}
	if s.Output.Dim(0) != 12 || s.Output.Dim(1) != 128 || s.Output.Dim(2) != 128 {
		t.Errorf("einsum output = %s", s.Output)
	}
	if s.HasWeights() {
		t.Error("act×act einsum must not carry weights")
	}
}

func TestBuilderPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on rank-2 conv input")
		}
	}()
	g := NewGraph("bad")
	in := g.Input("x", tensor.NewShape(tensor.BF16, 2, 3))
	g.Conv2D("conv", in, 8, 3, 3, 1, true)
}

func TestWorkingSet(t *testing.T) {
	g := tinyCNN()
	// Largest working set is the residual add: two 8×8×32 inputs plus one
	// 8×8×32 output, all bf16.
	ws := MaxWorkingSetBytes(g)
	want := int64(3 * 8 * 8 * 32 * 2)
	if ws != want {
		t.Errorf("max working set = %d, want %d", ws, want)
	}
}

func TestStats(t *testing.T) {
	g := tinyCNN()
	s := Stats(g)
	if s.MatrixOps != 3 {
		t.Errorf("matrix ops = %d, want 3", s.MatrixOps)
	}
	if s.FLOPs <= 0 || s.WeightBytes <= 0 {
		t.Errorf("stats: %+v", s)
	}
	if s.InputBytes != 8*8*16*2 {
		t.Errorf("input bytes = %d", s.InputBytes)
	}
	if s.DepthwiseFLOPs == 0 || s.Conv2DFLOPs == 0 {
		t.Error("expected both conv and dwconv FLOPs")
	}
	if s.FLOPs != s.DepthwiseFLOPs+s.Conv2DFLOPs+s.VectorFLOPs {
		t.Error("FLOP partition does not sum to total")
	}
}

func TestPartitionNone(t *testing.T) {
	g := tinyCNN()
	p := PartitionNone(g)
	costed := 0
	for _, op := range g.Ops {
		if !skipRegion(op) {
			costed++
		}
	}
	if len(p.Regions) != costed {
		t.Errorf("regions = %d, want %d", len(p.Regions), costed)
	}
}

func TestPartitionXLA(t *testing.T) {
	g := tinyCNN()
	p := PartitionXLA(g)
	// conv1+bn1+act1 | dw1+bn2+act2 | pw1+res → 3 regions.
	if len(p.Regions) != 3 {
		t.Fatalf("XLA regions = %d, want 3", len(p.Regions))
	}
	for _, r := range p.Regions {
		matrix := 0
		for _, op := range r.Ops {
			if op.Kind.IsMatrix() {
				matrix++
			}
		}
		if matrix > 1 {
			t.Errorf("region %d has %d matrix ops", r.ID, matrix)
		}
	}
}

func TestPartitionDSConv(t *testing.T) {
	g := tinyCNN()
	p := PartitionDSConv(g)
	// dw region merges with pointwise region → 2 regions.
	if len(p.Regions) != 2 {
		t.Fatalf("DSConv regions = %d, want 2", len(p.Regions))
	}
}

func TestPartitionMBConv(t *testing.T) {
	g := tinyCNN()
	p := PartitionMBConv(g)
	// One region per block: stem, block1.
	if len(p.Regions) != 2 {
		t.Fatalf("MBConv regions = %d, want 2", len(p.Regions))
	}
}

func TestOpIntensityOrdering(t *testing.T) {
	// Fusion must monotonically improve (or preserve) op intensity:
	// none <= XLA <= DSConv <= MBConv <= ideal.
	g := tinyCNN()
	none := PartitionNone(g).OpIntensity()
	xla := PartitionXLA(g).OpIntensity()
	ds := PartitionDSConv(g).OpIntensity()
	mb := PartitionMBConv(g).OpIntensity()
	ideal := IdealOpIntensity(g)
	if !(none <= xla+1e-9 && xla <= ds+1e-9 && ds <= mb+1e-9 && mb <= ideal+1e-9) {
		t.Errorf("intensity not monotone: none=%.2f xla=%.2f ds=%.2f mb=%.2f ideal=%.2f",
			none, xla, ds, mb, ideal)
	}
	if none <= 0 {
		t.Error("op intensity must be positive")
	}
}

func TestRegionIOConservation(t *testing.T) {
	// Under PartitionNone, total region FLOPs equals graph FLOPs and every
	// non-free op's weights are accounted exactly once.
	g := tinyCNN()
	p := PartitionNone(g)
	var flops, weights int64
	for _, r := range p.Regions {
		io := p.IO(r)
		flops += io.FLOPs
		weights += io.WeightBytes
	}
	if flops != Stats(g).FLOPs {
		t.Errorf("region FLOPs %d != graph FLOPs %d", flops, Stats(g).FLOPs)
	}
	if weights != WeightBytes(g) {
		t.Errorf("region weights %d != graph weights %d", weights, WeightBytes(g))
	}
}

func TestConsumers(t *testing.T) {
	g := tinyCNN()
	cons := g.Consumers()
	// act1 output feeds dw1 and the residual add.
	var act1 *Op
	for _, op := range g.Ops {
		if op.Name == "act1" {
			act1 = op
		}
	}
	if act1 == nil {
		t.Fatal("act1 not found")
	}
	if len(cons[act1.ID]) != 2 {
		t.Errorf("act1 consumers = %d, want 2", len(cons[act1.ID]))
	}
}

func TestLSTMCell(t *testing.T) {
	g := NewGraph("lstm")
	x := g.Input("x", tensor.NewShape(tensor.BF16, 4, 256))
	c := g.LSTMCell("cell", x, 512)
	if c.Output.Dim(1) != 512 {
		t.Errorf("lstm output = %s", c.Output)
	}
	wantW := int64((256+512)*4*512+4*512) * 2
	if c.WeightBytes() != wantW {
		t.Errorf("lstm weights = %d, want %d", c.WeightBytes(), wantW)
	}
	if FLOPs(c) <= 2*4*(256+512)*4*512 {
		t.Error("lstm FLOPs must include gate math beyond the matmul")
	}
}

func TestKindString(t *testing.T) {
	if KConv2D.String() != "conv2d" || Kind(99).String() != "kind(99)" {
		t.Error("kind names wrong")
	}
}

func TestValidateCatchesBadIDs(t *testing.T) {
	g := tinyCNN()
	g.Ops[2].ID = 99
	if err := g.Validate(); err == nil {
		t.Error("expected validation error for bad ID")
	}
}
