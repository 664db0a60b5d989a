package models

import (
	"strings"
	"testing"

	"fast/internal/hlo"
	"fast/internal/tensor"
)

// findOp returns the unique op with the given name, or fails the test.
func findOp(t *testing.T, g *hlo.Graph, name string) *hlo.Op {
	t.Helper()
	for _, op := range g.Ops {
		if op.Name == name {
			return op
		}
	}
	t.Fatalf("%s: no op named %q", g.Name, name)
	return nil
}

// TestGPTGoldenPins pins the registry decoder workloads' structure: op
// counts, total FLOPs, KV-cache footprints, and weight bytes at batch 1.
// These are the decoder analogue of the encoder suite's frozen reference:
// any change to the builders must re-justify these numbers.
func TestGPTGoldenPins(t *testing.T) {
	pins := []struct {
		name            string
		ops             int
		flops, kv, wgts int64
	}{
		{"gpt2-prefill-128", 222, 32285491200, 0, 324798626},
		{"gpt2-prefill-1024", 222, 292767399936, 0, 326174882},
		{"gpt2-decode-1024", 246, 285905664, 37748736, 326174882},
		{"gpt2-local-prefill-1024", 222, 263210139648, 0, 326174882},
		{"gpt2-local-decode-1024", 246, 257041152, 9437184, 326174882},
	}
	for _, pin := range pins {
		g := MustBuild(pin.name, 1)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", pin.name, err)
		}
		s := hlo.Stats(g)
		if s.Ops != pin.ops {
			t.Errorf("%s: %d ops, want %d", pin.name, s.Ops, pin.ops)
		}
		if s.FLOPs != pin.flops {
			t.Errorf("%s: %d FLOPs, want %d", pin.name, s.FLOPs, pin.flops)
		}
		if s.KVBytes != pin.kv {
			t.Errorf("%s: %d KV bytes, want %d", pin.name, s.KVBytes, pin.kv)
		}
		if w := hlo.WeightBytes(g); w != pin.wgts {
			t.Errorf("%s: %d weight bytes, want %d", pin.name, w, pin.wgts)
		}
	}
}

// TestGPTDecodeShapes pins the decode step's per-layer tensor geometry at
// GPT-2-small scale (12 heads × 64 head-dim over a 1024-entry cache).
func TestGPTDecodeShapes(t *testing.T) {
	g := MustBuild("gpt2-decode-1024", 1)
	kcache := findOp(t, g, "layer0.kcache")
	if kcache.Kind != hlo.KKVCache {
		t.Fatalf("layer0.kcache kind = %v, want kv-cache", kcache.Kind)
	}
	wantK := tensor.NewShape(tensor.BF16, 12, 64, 1024)
	if kcache.Output.String() != wantK.String() {
		t.Errorf("kcache shape = %v, want %v", kcache.Output, wantK)
	}
	vcache := findOp(t, g, "layer0.vcache")
	wantV := tensor.NewShape(tensor.BF16, 12, 1024, 64)
	if vcache.Output.String() != wantV.String() {
		t.Errorf("vcache shape = %v, want %v", vcache.Output, wantV)
	}
	scores := findOp(t, g, "layer0.attn.scores")
	wantS := tensor.NewShape(tensor.BF16, 12, 1, 1024)
	if scores.Output.String() != wantS.String() {
		t.Errorf("scores shape = %v, want %v", scores.Output, wantS)
	}
	logits := findOp(t, g, "lm_head.proj")
	if logits.Output.Dim(logits.Output.Rank()-1) != 50257 {
		t.Errorf("logits vocab dim = %d, want 50257", logits.Output.Dim(logits.Output.Rank()-1))
	}
	// The fresh K/V rows must be cache-append outputs of the graph.
	var appends int
	for _, out := range g.Outputs() {
		if strings.Contains(out.Name, ".qkv.key") || strings.Contains(out.Name, ".qkv.value") {
			appends++
		}
	}
	if appends != 24 {
		t.Errorf("%d cache-append outputs, want 24 (2 per layer)", appends)
	}
}

// TestGPTStructureScales checks the op-count and KV-footprint closed
// forms across (layers, heads, context): prefill is 18 ops per layer + 6
// fixed, decode is 20 per layer + 6, and the cache holds 2 bf16 tensors
// of batch·context·hidden elements per layer.
func TestGPTStructureScales(t *testing.T) {
	for _, tc := range []struct {
		layers, heads, hidden, context int64
	}{
		{1, 1, 64, 16},
		{2, 4, 128, 64},
		{4, 8, 512, 256},
	} {
		cfg := transformerConfig{
			Layers: tc.layers, Hidden: tc.hidden, Heads: tc.heads,
			FFN: 4 * tc.hidden, VocabSize: 1000,
			Context: tc.context, Batch: 2,
		}
		pre := gptPrefill(cfg)
		if got, want := len(pre.Ops), int(18*tc.layers+6); got != want {
			t.Errorf("prefill(%+v): %d ops, want %d", tc, got, want)
		}
		dec := gptDecode(cfg)
		if got, want := len(dec.Ops), int(20*tc.layers+6); got != want {
			t.Errorf("decode(%+v): %d ops, want %d", tc, got, want)
		}
		wantKV := tc.layers * 2 * cfg.Batch * tc.context * tc.hidden * 2
		if got := hlo.Stats(dec).KVBytes; got != wantKV {
			t.Errorf("decode(%+v): %d KV bytes, want %d", tc, got, wantKV)
		}
		if hlo.Stats(pre).KVBytes != 0 {
			t.Errorf("prefill(%+v): nonzero KV bytes", tc)
		}
	}
}

// TestGPTDecodeMarginalFLOPs is the phase-consistency differential: with
// the full (non-causal) prefill contraction, every costed op in the
// decode step at cache occupancy N must cost exactly 1/N of its
// same-named prefill op at sequence length N — the decode graph is the
// prefill graph's marginal token. Holds for dense and block-local
// attention alike.
func TestGPTDecodeMarginalFLOPs(t *testing.T) {
	for _, base := range []string{"gpt2", "gpt2-local"} {
		const n = 1024
		pre := MustBuild(base+"-prefill-1024", 4)
		dec := MustBuild(base+"-decode-1024", 4)
		preFLOPs := make(map[string]int64, len(pre.Ops))
		for _, op := range pre.Ops {
			preFLOPs[op.Name] = hlo.FLOPs(op)
		}
		var matched int
		for _, op := range dec.Ops {
			df := hlo.FLOPs(op)
			if df == 0 {
				continue
			}
			pf, ok := preFLOPs[op.Name]
			if !ok {
				t.Fatalf("%s: decode op %q has no prefill counterpart", base, op.Name)
			}
			if pf != n*df {
				t.Errorf("%s: op %q: prefill %d FLOPs != %d × decode %d", base, op.Name, pf, n, df)
			}
			matched++
		}
		// 6 matrix ops per layer + the LM head, plus the vector ops.
		if matched < 73 {
			t.Errorf("%s: only %d costed ops compared", base, matched)
		}
	}
}

// TestGPTLocalWindow: block-local attention shrinks the act×act
// contractions and the decode cache, and clamps to the context when the
// cache is shorter than the window.
func TestGPTLocalWindow(t *testing.T) {
	dense := hlo.Stats(MustBuild("gpt2-prefill-1024", 1))
	local := hlo.Stats(MustBuild("gpt2-local-prefill-1024", 1))
	if local.FLOPs >= dense.FLOPs {
		t.Errorf("local prefill FLOPs %d not below dense %d", local.FLOPs, dense.FLOPs)
	}
	if d, l := hlo.Stats(MustBuild("gpt2-decode-1024", 1)), hlo.Stats(MustBuild("gpt2-local-decode-1024", 1)); l.KVBytes*4 != d.KVBytes {
		t.Errorf("local decode KV %d, want 1/4 of dense %d (window 256 of context 1024)", l.KVBytes, d.KVBytes)
	}
	// Context shorter than the window: the local decode step degenerates
	// to the dense one.
	short := gpt2SmallConfig(1, 64)
	shortLocal := short
	shortLocal.LocalWindow = 256
	if a, b := hlo.Stats(gptDecode(short)), hlo.Stats(gptDecode(shortLocal)); a != b {
		t.Errorf("64-entry cache: local stats %+v != dense %+v", b, a)
	}
}

// TestGPTRegistryNames covers Validate and the registry parser over the
// decoder namespace: every advertised name resolves, malformed ones fail
// without panicking.
func TestGPTRegistryNames(t *testing.T) {
	for _, name := range Names() {
		if err := Validate(name); err != nil {
			t.Errorf("Validate(%q): %v", name, err)
		}
	}
	for _, bad := range []string{
		"gpt2-prefill",           // no length
		"gpt2-prefill-",          // empty length
		"gpt2-prefill-zero",      // non-numeric
		"gpt2-prefill-0",         // out of range
		"gpt2-train-128",         // unknown phase
		"gpt2-local-prefill-100", // not divisible by the 256-wide block
		"gpt2-local-decode-",     // empty length
	} {
		if err := Validate(bad); err == nil {
			t.Errorf("Validate(%q) accepted a malformed name", bad)
		}
	}
	for name, kv := range map[string]bool{
		"gpt2-decode-1024": true, "gpt2-local-decode-512": true,
		"gpt2-prefill-128": false, "bert-128": false, "resnet50": false,
	} {
		if got := hlo.Stats(MustBuild(name, 1)).KVBytes > 0; got != kv {
			t.Errorf("%s reads a KV cache: %v, want %v", name, got, kv)
		}
	}
}
