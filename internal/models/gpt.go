package models

import (
	"fmt"

	"fast/internal/hlo"
	"fast/internal/tensor"
)

// gpt2SmallConfig returns GPT-2-small hyperparameters (Radford et al.
// 2019: 12 layers, 768 hidden, 12 heads, 50257 vocab) at the given batch
// and context length.
func gpt2SmallConfig(batch, context int64) transformerConfig {
	return transformerConfig{
		Layers: 12, Hidden: 768, Heads: 12, FFN: 3072,
		VocabSize: 50257, Context: context, Batch: batch,
	}
}

func (cfg transformerConfig) check(prefill bool) {
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

// gptGraphName names a GPT phase's graph, marking block-local variants.
func gptGraphName(phase string, cfg transformerConfig) string {
	if cfg.LocalWindow > 0 {
		return fmt.Sprintf("%s%d-local%d", phase, cfg.Context, cfg.LocalWindow)
	}
	return fmt.Sprintf("%s%d", phase, cfg.Context)
}

// gptPrefill builds the prefill graph: a causal-decoder stack evaluated
// at the full context length, plus the LM head over every position. Op
// names match BERT's component naming so per-op breakdowns classify
// both the same way, and match gptDecode's names op-for-op so phase
// costs can be compared by name.
//
// Attention einsums are charged at the full seq×seq contraction (no
// causal discount), which keeps the prefill/decode marginal-cost
// identity exact: every linear op costs Context × its decode
// counterpart, and each attention einsum at context N costs N × the
// decode einsum at occupancy N.
func gptPrefill(cfg transformerConfig) *hlo.Graph {
	cfg.check(true)
	g, seq := transformer(gptGraphName("gpt-prefill-seq", cfg), cfg,
		cfg.Context, cfg.VocabSize+cfg.Context, sequenceAttention(cfg))
	return lmHead(g, cfg, seq, cfg.Context)
}

// gptDecode builds one autoregressive decode step: sequence length 1
// over a KV-cache at occupancy cfg.Context. Each layer reads persistent
// kcache/vcache tensors (hlo.KVCache sources — residency candidates,
// not activations), and the step's freshly projected key/value rows are
// written back out as the cache append. With LocalWindow set, the
// attention reads only the most recent min(Context, LocalWindow) cache
// entries.
func gptDecode(cfg transformerConfig) *hlo.Graph {
	cfg.check(false)
	bh, headDim := cfg.Batch*cfg.Heads, cfg.Hidden/cfg.Heads
	width := cfg.Context // cache entries the step attends over
	if cfg.LocalWindow > 0 && cfg.LocalWindow < width {
		width = cfg.LocalWindow
	}
	attn := attention{eb: bh, em: 1, en: width,
		add: func(g *hlo.Graph, name string, q, k, v *hlo.Op) (qh, kh, vh *hlo.Op) {
			// The new token's K/V rows are appended to the cache in DRAM.
			g.Output(k)
			g.Output(v)
			qh = g.Reshape(name+".q.split", q, tensor.NewShape(tensor.BF16, bh, 1, headDim))
			kh = g.KVCache(name+".kcache", tensor.NewShape(tensor.BF16, bh, headDim, width))
			vh = g.KVCache(name+".vcache", tensor.NewShape(tensor.BF16, bh, width, headDim))
			return qh, kh, vh
		}}
	g, seq := transformer(gptGraphName("gpt-decode-ctx", cfg), cfg, 1, cfg.VocabSize+cfg.Context, attn)
	return lmHead(g, cfg, seq, 1)
}

// lmHead adds the LM head over the tokens positions of each sequence.
func lmHead(g *hlo.Graph, cfg transformerConfig, seq *hlo.Op, tokens int64) *hlo.Graph {
	g.InBlock("lm_head")
	flat := g.Reshape("lm_head.flatten", seq,
		tensor.NewShape(tensor.BF16, cfg.Batch*tokens, cfg.Hidden))
	g.Output(g.MatMul("lm_head.proj", flat, cfg.VocabSize))
	return g
}
