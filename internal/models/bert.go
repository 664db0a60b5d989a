package models

import (
	"fmt"

	"fast/internal/hlo"
	"fast/internal/tensor"
)

// bertBaseConfig returns the BERT-Base hyperparameters (Devlin et al.
// 2019) at the given batch and sequence length.
func bertBaseConfig(batch, seqLen int64) transformerConfig {
	return transformerConfig{
		Layers: 12, Hidden: 768, Heads: 12, FFN: 3072,
		VocabSize: 30522, Context: seqLen, Batch: batch,
	}
}

// bert builds a BERT encoder graph from the config: the shared
// transformer stack over cfg.Context tokens plus the pooler head. The
// embedding lookup reads the [vocab+positions+segments, hidden] table.
func bert(cfg transformerConfig) *hlo.Graph {
	g, seq := transformer(fmt.Sprintf("bert-seq%d", cfg.Context), cfg,
		cfg.Context, cfg.VocabSize+512+2, sequenceAttention(cfg))
	g.InBlock("pooler")
	pooled := g.Reshape("pooler.first-token", seq,
		tensor.NewShape(tensor.BF16, cfg.Batch*cfg.Context, cfg.Hidden))
	g.Output(g.MatMul("pooler.dense", pooled, cfg.Hidden))
	return g
}
