package hlo

import (
	"strings"
	"testing"

	"fast/internal/tensor"
)

func TestBuilderShapes(t *testing.T) {
	g := NewGraph("builders")
	x := g.Input("x", tensor.NewShape(tensor.BF16, 2, 8, 8, 16))
	y := g.Input("y", tensor.NewShape(tensor.BF16, 2, 8, 8, 16))

	mul := g.Mul("mul", x, y)
	if !mul.Output.Equal(x.Output) || mul.VecOpsPerElem != 1 {
		t.Errorf("mul: %s", mul)
	}

	sm := g.Softmax("sm", x)
	if sm.Kind != KSoftmax || !sm.Output.Equal(x.Output) {
		t.Errorf("softmax: %s", sm)
	}

	ln := g.LayerNorm("ln", x)
	if ln.Kind != KLayerNorm {
		t.Errorf("layernorm kind: %s", ln.Kind)
	}
	if ln.WeightBytes() != 2*16*2 {
		t.Errorf("layernorm params = %d, want gamma+beta", ln.WeightBytes())
	}

	pool := g.Pool("pool", x, 2, 2, true)
	if pool.Output.Dim(1) != 4 || pool.Output.Dim(2) != 4 || pool.Output.Dim(3) != 16 {
		t.Errorf("pool: %s", pool.Output)
	}
	if pool.VecOpsPerElem != 4 {
		t.Errorf("pool cost = %f, want window size 4", pool.VecOpsPerElem)
	}

	gp := g.GlobalPool("gp", x)
	if gp.Output.Dim(1) != 1 || gp.Output.Dim(2) != 1 || gp.Output.Dim(3) != 16 {
		t.Errorf("global pool: %s", gp.Output)
	}
	if gp.VecOpsPerElem != 64 {
		t.Errorf("global pool cost = %f, want H·W = 64", gp.VecOpsPerElem)
	}

	re := g.Reshape("re", x, tensor.NewShape(tensor.BF16, 2, 64, 16))
	if FLOPs(re) != 0 {
		t.Error("reshape must be free")
	}

	cc := g.Concat("cc", 3, x, y)
	if cc.Output.Dim(3) != 32 {
		t.Errorf("concat channels = %d, want 32", cc.Output.Dim(3))
	}

	seq := g.Reshape("seq", x, tensor.NewShape(tensor.BF16, 2, 64, 16))
	step := g.SliceStep("step", seq, 3)
	if step.Output.Rank() != 2 || step.Output.Dim(0) != 2 || step.Output.Dim(1) != 16 {
		t.Errorf("slice step: %s", step.Output)
	}

	ids := g.Input("ids", tensor.NewShape(tensor.INT8, 2, 10, 1))
	emb := g.Gather("emb", ids, 1000, 64)
	if emb.Output.Dim(2) != 64 || emb.Output.Type != tensor.BF16 {
		t.Errorf("gather: %s", emb.Output)
	}
	if emb.WeightBytes() != 1000*64*2 {
		t.Errorf("gather table bytes = %d", emb.WeightBytes())
	}

	out := g.Output(emb)
	if len(g.Outputs()) != 1 || g.Outputs()[0] != out {
		t.Error("outputs not tracked")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	g := NewGraph("p")
	x := g.Input("x", tensor.NewShape(tensor.BF16, 2, 8, 8, 16))
	expectPanic("bad reshape", func() {
		g.Reshape("r", x, tensor.NewShape(tensor.BF16, 3, 3))
	})
	expectPanic("slice on rank-4", func() {
		g.SliceStep("s", x, 0)
	})
	expectPanic("slice out of range", func() {
		seq := g.Reshape("seq", x, tensor.NewShape(tensor.BF16, 2, 64, 16))
		g.SliceStep("s", seq, 64)
	})
	expectPanic("mismatched add", func() {
		y := g.Input("y", tensor.NewShape(tensor.BF16, 2, 8, 8, 32))
		g.Add("a", x, y)
	})
	expectPanic("bad einsum lhs", func() {
		a := g.Input("a", tensor.NewShape(tensor.BF16, 2, 4, 8))
		b := g.Input("b", tensor.NewShape(tensor.BF16, 2, 8, 4))
		g.Einsum("e", a, b, 2, 5, 4, 8)
	})
	expectPanic("invalid input shape", func() {
		g.Input("bad", tensor.NewShape(tensor.BF16, 0, 2))
	})
}

func TestOpString(t *testing.T) {
	g := NewGraph("s")
	x := g.Input("x", tensor.NewShape(tensor.BF16, 1, 4))
	s := x.String()
	for _, want := range []string{"%0", "input", "bf16[1,4]", `"x"`} {
		if !strings.Contains(s, want) {
			t.Errorf("op string %q missing %q", s, want)
		}
	}
}

func TestSharedWeightKeyDefaults(t *testing.T) {
	g := NewGraph("k")
	x := g.Input("x", tensor.NewShape(tensor.BF16, 1, 8))
	a := g.MatMul("a", x, 8)
	b := g.MatMul("b", x, 8)
	if a.SharedWeightKey() == b.SharedWeightKey() {
		t.Error("distinct ops must default to distinct weight keys")
	}
	a.WeightKey = "shared"
	b.WeightKey = "shared"
	if WeightBytes(g) != a.WeightBytes() {
		t.Error("shared key must dedup footprint")
	}
}

func TestValidateCatchesForwardReference(t *testing.T) {
	g := NewGraph("fw")
	x := g.Input("x", tensor.NewShape(tensor.BF16, 1, 4))
	y := g.Activation("y", x, 1)
	// Corrupt: make x depend on y.
	x.Inputs = []*Op{y}
	if err := g.Validate(); err == nil {
		t.Error("forward reference must fail validation")
	}
}

func TestValidateCatchesMissingEinsum(t *testing.T) {
	g := NewGraph("me")
	x := g.Input("x", tensor.NewShape(tensor.BF16, 4, 8))
	m := g.MatMul("m", x, 8)
	m.Einsum = nil
	if err := g.Validate(); err == nil {
		t.Error("matrix op without einsum params must fail validation")
	}
}
