package models

import (
	"fmt"

	"fast/internal/hlo"
	"fast/internal/tensor"
)

// gptConfig parameterizes a GPT-style decoder-transformer stack.
// gpt2SmallConfig matches GPT-2 small (Radford et al. 2019).
//
// The same config builds two graphs for the two serving phases:
//
//   - gptPrefill: the full-sequence pass over Context tokens that
//     populates the KV-cache (compute-bound, BERT-shaped).
//   - gptDecode: one autoregressive step at sequence length 1 attending
//     over a KV-cache at occupancy Context (matvec- and
//     cache-bandwidth-bound — the regime that stresses residency).
type gptConfig struct {
	Layers    int64
	Hidden    int64
	Heads     int64
	FFN       int64
	VocabSize int64
	// Context is the prefill sequence length, or the KV-cache occupancy
	// (including the current token) a decode step attends over.
	Context int64
	Batch   int64
	// LocalWindow, when > 0, selects SPLAT-style block-local sparse
	// attention: prefill attention is confined to diagonal blocks of
	// this width, and a decode step reads only the most recent
	// min(Context, LocalWindow) cache entries. Zero means dense
	// attention.
	LocalWindow int64
}

// gpt2SmallConfig returns GPT-2-small hyperparameters (12 layers, 768
// hidden, 12 heads, 50257 vocab) at the given batch and context length.
func gpt2SmallConfig(batch, context int64) gptConfig {
	return gptConfig{
		Layers: 12, Hidden: 768, Heads: 12, FFN: 3072,
		VocabSize: 50257, Context: context, Batch: batch,
	}
}

func (cfg gptConfig) check(prefill bool) {
	if cfg.Layers < 1 || cfg.Heads < 1 || cfg.Hidden%cfg.Heads != 0 {
		panic(fmt.Sprintf("models: bad GPT config layers=%d heads=%d hidden=%d",
			cfg.Layers, cfg.Heads, cfg.Hidden))
	}
	if cfg.Context < 1 {
		panic(fmt.Sprintf("models: bad GPT context %d", cfg.Context))
	}
	if prefill && cfg.LocalWindow > 0 && cfg.Context%cfg.LocalWindow != 0 {
		panic(fmt.Sprintf("models: block-local prefill needs context %d divisible by window %d",
			cfg.Context, cfg.LocalWindow))
	}
}

// gptPrefill builds the prefill graph: a causal-decoder stack evaluated
// at the full context length, plus the LM head over every position. Op
// names match BERT's component naming ("qkv", "attn.scores",
// "attn.softmax", "attn.context", "attn.output", "ffn") so per-op
// breakdowns classify both the same way, and match gptDecode's names
// op-for-op so phase costs can be compared by name.
//
// Attention einsums are charged at the full seq×seq contraction (no
// causal discount), which keeps the prefill/decode marginal-cost
// identity exact: every linear op costs Context × its decode
// counterpart, and each attention einsum at context N costs N × the
// decode einsum at occupancy N.
func gptPrefill(cfg gptConfig) *hlo.Graph {
	cfg.check(true)
	variant := ""
	if cfg.LocalWindow > 0 {
		variant = fmt.Sprintf("-local%d", cfg.LocalWindow)
	}
	g := hlo.NewGraph(fmt.Sprintf("gpt-prefill-seq%d%s", cfg.Context, variant))
	headDim := cfg.Hidden / cfg.Heads
	seqLen := cfg.Context

	g.InBlock("embeddings")
	ids := g.Input("token-ids", tensor.NewShape(tensor.INT8, cfg.Batch, seqLen, 1))
	x := g.Gather("embeddings.lookup", ids, cfg.VocabSize+cfg.Context, cfg.Hidden)
	seq := g.LayerNorm("embeddings.layernorm", x)

	for l := int64(0); l < cfg.Layers; l++ {
		name := fmt.Sprintf("layer%d", l)
		g.InBlock(name)

		q := g.MatMul(name+".qkv.query", seq, cfg.Hidden)
		k := g.MatMul(name+".qkv.key", seq, cfg.Hidden)
		v := g.MatMul(name+".qkv.value", seq, cfg.Hidden)

		qh := g.Reshape(name+".q.split", q,
			tensor.NewShape(tensor.BF16, cfg.Batch*cfg.Heads, seqLen, headDim))
		kh := g.Reshape(name+".k.split", k,
			tensor.NewShape(tensor.BF16, cfg.Batch*cfg.Heads, headDim, seqLen))
		vh := g.Reshape(name+".v.split", v,
			tensor.NewShape(tensor.BF16, cfg.Batch*cfg.Heads, seqLen, headDim))

		// Contraction geometry: dense attends all-to-all; block-local
		// partitions the sequence into Context/Window diagonal blocks,
		// shrinking the act×act products Window/Context-fold (SPLAT's
		// structured-sparsity regime).
		eb, em, en := cfg.Batch*cfg.Heads, seqLen, seqLen
		if w := cfg.LocalWindow; w > 0 {
			eb, em, en = cfg.Batch*cfg.Heads*(seqLen/w), w, w
		}
		scores := g.Einsum(name+".attn.scores", qh, kh, eb, em, en, headDim)
		probs := g.Softmax(name+".attn.softmax", scores)
		ctx := g.Einsum(name+".attn.context", probs, vh, eb, em, headDim, en)
		merged := g.Reshape(name+".attn.merge", ctx,
			tensor.NewShape(tensor.BF16, cfg.Batch, seqLen, cfg.Hidden))
		attnOut := g.MatMul(name+".attn.output", merged, cfg.Hidden)
		res1 := g.Add(name+".attn.residual", attnOut, seq)
		norm1 := g.LayerNorm(name+".attn.layernorm", res1)

		ff1 := g.MatMul(name+".ffn.intermediate", norm1, cfg.FFN)
		ff1 = g.Activation(name+".ffn.gelu", ff1, 6)
		ff2 := g.MatMul(name+".ffn.output", ff1, cfg.Hidden)
		res2 := g.Add(name+".ffn.residual", ff2, norm1)
		seq = g.LayerNorm(name+".ffn.layernorm", res2)
	}

	g.InBlock("lm_head")
	flat := g.Reshape("lm_head.flatten", seq,
		tensor.NewShape(tensor.BF16, cfg.Batch*seqLen, cfg.Hidden))
	logits := g.MatMul("lm_head.proj", flat, cfg.VocabSize)
	g.Output(logits)
	return g
}

// gptDecode builds one autoregressive decode step: sequence length 1
// over a KV-cache at occupancy cfg.Context. Each layer reads persistent
// kcache/vcache tensors (hlo.KVCache sources — residency candidates,
// not activations), and the step's freshly projected key/value rows are
// written back out as the cache append. With LocalWindow set, the
// attention reads only the most recent min(Context, LocalWindow) cache
// entries.
func gptDecode(cfg gptConfig) *hlo.Graph {
	cfg.check(false)
	variant := ""
	if cfg.LocalWindow > 0 {
		variant = fmt.Sprintf("-local%d", cfg.LocalWindow)
	}
	g := hlo.NewGraph(fmt.Sprintf("gpt-decode-ctx%d%s", cfg.Context, variant))
	headDim := cfg.Hidden / cfg.Heads
	width := cfg.Context // cache entries the step attends over
	if cfg.LocalWindow > 0 && cfg.LocalWindow < width {
		width = cfg.LocalWindow
	}

	g.InBlock("embeddings")
	ids := g.Input("token-ids", tensor.NewShape(tensor.INT8, cfg.Batch, 1, 1))
	x := g.Gather("embeddings.lookup", ids, cfg.VocabSize+cfg.Context, cfg.Hidden)
	seq := g.LayerNorm("embeddings.layernorm", x)

	for l := int64(0); l < cfg.Layers; l++ {
		name := fmt.Sprintf("layer%d", l)
		g.InBlock(name)

		q := g.MatMul(name+".qkv.query", seq, cfg.Hidden)
		k := g.MatMul(name+".qkv.key", seq, cfg.Hidden)
		v := g.MatMul(name+".qkv.value", seq, cfg.Hidden)
		// The new token's K/V rows are appended to the cache in DRAM.
		g.Output(k)
		g.Output(v)

		qh := g.Reshape(name+".q.split", q,
			tensor.NewShape(tensor.BF16, cfg.Batch*cfg.Heads, 1, headDim))
		kcache := g.KVCache(name+".kcache",
			tensor.NewShape(tensor.BF16, cfg.Batch*cfg.Heads, headDim, width))
		vcache := g.KVCache(name+".vcache",
			tensor.NewShape(tensor.BF16, cfg.Batch*cfg.Heads, width, headDim))

		scores := g.Einsum(name+".attn.scores", qh, kcache,
			cfg.Batch*cfg.Heads, 1, width, headDim)
		probs := g.Softmax(name+".attn.softmax", scores)
		ctx := g.Einsum(name+".attn.context", probs, vcache,
			cfg.Batch*cfg.Heads, 1, headDim, width)
		merged := g.Reshape(name+".attn.merge", ctx,
			tensor.NewShape(tensor.BF16, cfg.Batch, 1, cfg.Hidden))
		attnOut := g.MatMul(name+".attn.output", merged, cfg.Hidden)
		res1 := g.Add(name+".attn.residual", attnOut, seq)
		norm1 := g.LayerNorm(name+".attn.layernorm", res1)

		ff1 := g.MatMul(name+".ffn.intermediate", norm1, cfg.FFN)
		ff1 = g.Activation(name+".ffn.gelu", ff1, 6)
		ff2 := g.MatMul(name+".ffn.output", ff1, cfg.Hidden)
		res2 := g.Add(name+".ffn.residual", ff2, norm1)
		seq = g.LayerNorm(name+".ffn.layernorm", res2)
	}

	g.InBlock("lm_head")
	flat := g.Reshape("lm_head.flatten", seq,
		tensor.NewShape(tensor.BF16, cfg.Batch, cfg.Hidden))
	logits := g.MatMul("lm_head.proj", flat, cfg.VocabSize)
	g.Output(logits)
	return g
}
