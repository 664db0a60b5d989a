package models

import (
	"fmt"

	"fast/internal/hlo"
	"fast/internal/tensor"
)

// transformerConfig parameterizes a post-norm transformer stack: BERT's
// encoder (bertBaseConfig) and GPT-2's decoder (gpt2SmallConfig).
//
// GPT-2 builds two graphs for its two serving phases:
//
//   - gptPrefill: the full-sequence pass over Context tokens that
//     populates the KV-cache (compute-bound, BERT-shaped).
//   - gptDecode: one autoregressive step at sequence length 1 attending
//     over a KV-cache at occupancy Context (matvec- and
//     cache-bandwidth-bound — the regime that stresses residency).
type transformerConfig struct {
	Layers    int64
	Hidden    int64
	Heads     int64
	FFN       int64
	VocabSize int64
	// Context is the sequence length (BERT, GPT prefill), or the
	// KV-cache occupancy (including the current token) a decode step
	// attends over.
	Context int64
	Batch   int64
	// LocalWindow, when > 0, selects SPLAT-style block-local sparse
	// attention: prefill attention is confined to diagonal blocks of
	// this width, and a decode step reads only the most recent
	// min(Context, LocalWindow) cache entries. Zero means dense
	// attention.
	LocalWindow int64
}

// attention is how one transformer graph forms each layer's attention.
// add appends the layer's attention operands after its QKV projections
// q, k and v, in the graph's op order, and returns the head-split query
// and the key and value operands of the scores and context einsums.
// Those einsums are eb-way batched over em query rows and en key
// positions.
type attention struct {
	eb, em, en int64
	add        func(g *hlo.Graph, name string, q, k, v *hlo.Op) (qh, kh, vh *hlo.Op)
}

// transformer builds the graph's token-id input over tokens positions
// per sequence, the embeddings over a table of table rows, and
// cfg.Layers post-norm layers: QKV projections, attention, output
// projection, residual plus layernorm, and a GELU feed-forward block.
// It returns the graph and the last layer's output; the caller adds its
// head. Op names prefix each component so per-op runtime breakdowns
// (Figure 5) classify by substring: "qkv", "attn.scores",
// "attn.softmax", "attn.context", "attn.output", "ffn".
func transformer(name string, cfg transformerConfig, tokens, table int64, attn attention) (*hlo.Graph, *hlo.Op) {
	g := hlo.NewGraph(name)
	headDim := cfg.Hidden / cfg.Heads

	g.InBlock("embeddings")
	ids := g.Input("token-ids", tensor.NewShape(tensor.INT8, cfg.Batch, tokens, 1))
	x := g.Gather("embeddings.lookup", ids, table, cfg.Hidden)
	seq := g.LayerNorm("embeddings.layernorm", x)

	for l := int64(0); l < cfg.Layers; l++ {
		name := fmt.Sprintf("layer%d", l)
		g.InBlock(name)

		// --- Self-attention ---
		q := g.MatMul(name+".qkv.query", seq, cfg.Hidden)
		k := g.MatMul(name+".qkv.key", seq, cfg.Hidden)
		v := g.MatMul(name+".qkv.value", seq, cfg.Hidden)
		qh, kh, vh := attn.add(g, name, q, k, v)

		// QK^T: activation×activation, O(seq²) — the §4.3 bottleneck.
		scores := g.Einsum(name+".attn.scores", qh, kh, attn.eb, attn.em, attn.en, headDim)
		probs := g.Softmax(name+".attn.softmax", scores)
		ctx := g.Einsum(name+".attn.context", probs, vh, attn.eb, attn.em, headDim, attn.en)
		merged := g.Reshape(name+".attn.merge", ctx,
			tensor.NewShape(tensor.BF16, cfg.Batch, tokens, cfg.Hidden))
		attnOut := g.MatMul(name+".attn.output", merged, cfg.Hidden)
		res1 := g.Add(name+".attn.residual", attnOut, seq)
		norm1 := g.LayerNorm(name+".attn.layernorm", res1)

		// --- Feed-forward ---
		ff1 := g.MatMul(name+".ffn.intermediate", norm1, cfg.FFN)
		ff1 = g.Activation(name+".ffn.gelu", ff1, 6)
		ff2 := g.MatMul(name+".ffn.output", ff1, cfg.Hidden)
		res2 := g.Add(name+".ffn.residual", ff2, norm1)
		seq = g.LayerNorm(name+".ffn.layernorm", res2)
	}
	return g, seq
}

// sequenceAttention is BERT's and GPT prefill's attention: each layer
// splits its freshly projected Q, K and V over the heads of all Context
// positions. Dense attention contracts all-to-all; with LocalWindow set
// it partitions the sequence into Context/LocalWindow diagonal blocks,
// shrinking the act×act products Window/Context-fold (SPLAT's
// structured-sparsity regime).
func sequenceAttention(cfg transformerConfig) attention {
	bh, seqLen, headDim := cfg.Batch*cfg.Heads, cfg.Context, cfg.Hidden/cfg.Heads
	a := attention{eb: bh, em: seqLen, en: seqLen}
	if w := cfg.LocalWindow; w > 0 {
		a.eb, a.em, a.en = bh*(seqLen/w), w, w
	}
	a.add = func(g *hlo.Graph, name string, q, k, v *hlo.Op) (qh, kh, vh *hlo.Op) {
		qh = g.Reshape(name+".q.split", q, tensor.NewShape(tensor.BF16, bh, seqLen, headDim))
		kh = g.Reshape(name+".k.split", k, tensor.NewShape(tensor.BF16, bh, headDim, seqLen))
		vh = g.Reshape(name+".v.split", v, tensor.NewShape(tensor.BF16, bh, seqLen, headDim))
		return qh, kh, vh
	}
	return a
}
