package models

import (
	"fmt"

	"fast/internal/hlo"
	"fast/internal/tensor"
)

// bertConfig parameterizes a BERT encoder stack. Base() matches BERT-Base
// (Devlin et al. 2019).
type bertConfig struct {
	Layers    int64
	Hidden    int64
	Heads     int64
	FFN       int64
	VocabSize int64
	SeqLen    int64
	Batch     int64
}

// bertBaseConfig returns the BERT-Base hyperparameters at the given batch
// and sequence length.
func bertBaseConfig(batch, seqLen int64) bertConfig {
	return bertConfig{
		Layers: 12, Hidden: 768, Heads: 12, FFN: 3072,
		VocabSize: 30522, SeqLen: seqLen, Batch: batch,
	}
}

// bert builds a BERT encoder graph from the config. Op names prefix each
// component so per-op runtime breakdowns (Figure 5) can classify by
// substring: "qkv", "attn.scores", "attn.softmax", "attn.context",
// "attn.output", "ffn".
func bert(cfg bertConfig) *hlo.Graph {
	g := hlo.NewGraph(fmt.Sprintf("bert-seq%d", cfg.SeqLen))
	headDim := cfg.Hidden / cfg.Heads

	g.InBlock("embeddings")
	ids := g.Input("token-ids", tensor.NewShape(tensor.INT8, cfg.Batch, cfg.SeqLen, 1))
	// Embedding lookup reads the [vocab+positions+segments, hidden] table.
	x := g.Gather("embeddings.lookup", ids, cfg.VocabSize+512+2, cfg.Hidden)
	seq := g.LayerNorm("embeddings.layernorm", x)

	for l := int64(0); l < cfg.Layers; l++ {
		name := fmt.Sprintf("layer%d", l)
		g.InBlock(name)

		// --- Self-attention ---
		q := g.MatMul(name+".qkv.query", seq, cfg.Hidden)
		k := g.MatMul(name+".qkv.key", seq, cfg.Hidden)
		v := g.MatMul(name+".qkv.value", seq, cfg.Hidden)

		qh := g.Reshape(name+".q.split", q,
			tensor.NewShape(tensor.BF16, cfg.Batch*cfg.Heads, cfg.SeqLen, headDim))
		kh := g.Reshape(name+".k.split", k,
			tensor.NewShape(tensor.BF16, cfg.Batch*cfg.Heads, headDim, cfg.SeqLen))
		vh := g.Reshape(name+".v.split", v,
			tensor.NewShape(tensor.BF16, cfg.Batch*cfg.Heads, cfg.SeqLen, headDim))

		// QK^T: activation×activation, O(seq²) — the §4.3 bottleneck.
		scores := g.Einsum(name+".attn.scores", qh, kh,
			cfg.Batch*cfg.Heads, cfg.SeqLen, cfg.SeqLen, headDim)
		probs := g.Softmax(name+".attn.softmax", scores)
		ctx := g.Einsum(name+".attn.context", probs, vh,
			cfg.Batch*cfg.Heads, cfg.SeqLen, headDim, cfg.SeqLen)
		merged := g.Reshape(name+".attn.merge", ctx,
			tensor.NewShape(tensor.BF16, cfg.Batch, cfg.SeqLen, cfg.Hidden))
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

	g.InBlock("pooler")
	pooled := g.Reshape("pooler.first-token", seq,
		tensor.NewShape(tensor.BF16, cfg.Batch*cfg.SeqLen, cfg.Hidden))
	logits := g.MatMul("pooler.dense", pooled, cfg.Hidden)
	g.Output(logits)
	return g
}

// BERTBase builds BERT-Base at the given batch and sequence length.
func BERTBase(batch, seqLen int64) *hlo.Graph {
	return bert(bertBaseConfig(batch, seqLen))
}
