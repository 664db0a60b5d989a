package experiments

import (
	"fast/internal/arch"
	"fast/internal/core"
	"fast/internal/sim"
	"fast/internal/tensor"
)

// decodePhases are the two serving phases the decode experiment
// co-optimizes: the compute-bound prefill pass and the
// cache-bandwidth-bound autoregressive step at the same context.
var decodePhases = []string{"gpt2-prefill-1024", "gpt2-decode-1024"}

// heldKVMiB sums the KV-cache bytes the fusion solution holds resident
// in Global Memory.
func heldKVMiB(r *sim.Result) float64 {
	var held int64
	for ri := range r.Regions {
		if r.Fusion.KVOnChip[ri] {
			held += r.Regions[ri].KVBytes
		}
	}
	return tensor.MiB(held)
}

// decodeServing reports the decoder-inference workload axis: GPT-2-small
// prefill and decode throughput per design, the KV-cache residency the
// fusion pass buys, and a prefill×decode co-optimized search winner —
// the two-phase analogue of the paper's multi-workload protocol.
func decodeServing(o Options) Table {
	o = o.withDefaults()
	t := Table{
		ID:    "decode",
		Title: "Decoder serving: GPT-2-small prefill/decode throughput and KV residency",
		Header: []string{"Design", "Prefill tok/s", "Decode tok/s",
			"KV held (MiB)", "Decode stall %"},
		Notes: "Prefill runs at context 1024 (one inference = 1024 tokens); decode is one " +
			"token per step over a 1024-entry cache (36 MiB at batch 1). Shape target: " +
			"decode is memory-stalled everywhere, large-GM designs hold cache slabs " +
			"on chip, and the co-optimized design balances both phases rather than " +
			"winning either outright.",
	}
	addRow := func(name string, prefill, decode *sim.Result) {
		t.Rows = append(t.Rows, []string{
			name,
			f1(prefill.QPS * 1024),
			f1(decode.QPS),
			f1(heldKVMiB(decode)),
			f1(decode.MemStallPost * 100),
		})
	}
	// Reference designs: the baseline software stack on TPU-v3, the FAST
	// stack on the published large design and the decode-tuned variant.
	tpu := arch.DieShrunkTPUv3()
	basePre, baseDec := simPhases(o, tpu, sim.BaselineOptions())
	addRow(tpu.Name+" (baseline)", basePre, baseDec)
	for _, cfg := range []*arch.Config{arch.FASTLarge(), arch.FASTDecode()} {
		pre, dec := simPhases(o, cfg, o.fullILP())
		addRow(cfg.Name, pre, dec)
	}
	// Prefill×decode co-optimization: one multi-workload study whose
	// objective is the geomean QPS across both phases.
	res := runStudy(o, decodePhases, core.Perf, o.SearchTrials, o.Seed+300)
	if res.Best != nil {
		wr, err := core.EvaluateDesign(res.Best, decodePhases, o.fullILP())
		if err != nil {
			panic(err)
		}
		addRow("searched (co-opt)", wr[0].Result, wr[1].Result)
	}
	return t
}

// simPhases simulates both serving phases on one design, each at the
// design's native batch.
func simPhases(o Options, cfg *arch.Config, opts sim.Options) (prefill, decode *sim.Result) {
	res := simAll(o.Parallelism, []simJob{
		{decodePhases[0], cfg, opts},
		{decodePhases[1], cfg, opts},
	})
	return res[0], res[1]
}
