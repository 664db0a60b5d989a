package experiments

import (
	"fmt"

	"fast/internal/arch"
	"fast/internal/hlo"
	"fast/internal/models"
	"fast/internal/sim"
	"fast/internal/tensor"
)

// table1WorkingSets reproduces Table 1: EfficientNet on-chip storage
// requirements in bf16 at batch 1 — the largest op working set and the
// total weight footprint per variant.
func table1WorkingSets() Table {
	t := Table{
		ID:     "table1",
		Title:  "EfficientNet on-chip storage requirements (bf16, batch 1)",
		Header: []string{"Model", "Max Working Set (MiB)", "Weights (MiB)"},
		Notes: "Paper: B0 2.87/12.7 MiB … B7 41.2/231 MiB. Shapes match published " +
			"EfficientNet parameter counts; the paper's weight column runs ~1.5-1.8x " +
			"larger than raw bf16 parameters (likely padded/layout-expanded tensors), " +
			"so absolute weights sit below the paper while the growth curve matches.",
	}
	for v := 0; v <= 7; v++ {
		g := models.EfficientNet(v, 1)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("EfficientNet-B%d", v),
			f2(tensor.MiB(hlo.MaxWorkingSetBytes(g))),
			f1(tensor.MiB(hlo.WeightBytes(g))),
		})
	}
	return t
}

// table2OpBreakdown reproduces Table 2: EfficientNet-B7 per-op-class FLOP
// and runtime shares on the TPU-v3 baseline.
func table2OpBreakdown() Table {
	r := simAll(0, []simJob{{"efficientnet-b7", arch.TPUv3(), sim.BaselineOptions()}})[0]
	t := Table{
		ID:     "table2",
		Title:  "EfficientNet-B7 per-op shares on TPU-v3",
		Header: []string{"Op Type", "FLOP %", "Runtime %"},
		Notes: "Paper: depthwise 5.00%/65.30%, Conv2D 94.67%/34.20%, other 0.33%/0.50%. " +
			"Shape target: depthwise consumes the majority of runtime at ~5% of FLOPs.",
	}
	for _, row := range r.ByClassRegion(sim.ClassifyCNN) {
		t.Rows = append(t.Rows, []string{
			row.Class,
			f2(row.FLOPShare * 100),
			f2(row.RuntimeShare * 100),
		})
	}
	t.Rows = append(t.Rows, []string{"(overall utilization)", "", f3(r.Utilization)})
	return t
}

// fig2StepTimeVsAccuracy reproduces Figure 2: inference step time vs
// ImageNet top-1 accuracy for the EfficientNet family on FAST-Large and
// the TPU-v3 baseline.
func fig2StepTimeVsAccuracy() Table {
	t := Table{
		ID:     "fig2",
		Title:  "EfficientNet family: step time vs ImageNet top-1",
		Header: []string{"Model", "Top-1 %", "TPU-v3 ms/img", "FAST-Large ms/img", "Speedup"},
		Notes: "Paper shape: FAST-Large shifts the whole latency/accuracy frontier left " +
			"by ~3-6x; accuracy is unchanged (FAST does not modify models).",
	}
	tpu, fl := arch.TPUv3(), arch.FASTLarge()
	var jobs []simJob
	for v := 0; v <= 7; v++ {
		name := fmt.Sprintf("efficientnet-b%d", v)
		jobs = append(jobs, simJob{name, tpu, sim.BaselineOptions()}, simJob{name, fl, sim.FASTOptions()})
	}
	sims := simAll(0, jobs)
	for v := 0; v <= 7; v++ {
		perImgTPU := 1e3 / sims[2*v].QPS
		perImgFL := 1e3 / sims[2*v+1].QPS
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("B%d", v),
			f1(models.EfficientNetAccuracy[v]),
			f3(perImgTPU), f3(perImgFL), f2(perImgTPU/perImgFL) + "x",
		})
	}
	return t
}

// fig3OpIntensity reproduces Figure 3: operational intensity under
// successively stronger fusion (none, XLA, depthwise-separable template,
// MBConv template, ideal weight pinning) across workloads and batch
// sizes.
func fig3OpIntensity() Table {
	t := Table{
		ID:     "fig3",
		Title:  "Op fusion impact on operational intensity (FLOPs/byte)",
		Header: []string{"Workload", "Batch", "No fusion", "XLA", "DSConv tmpl", "MBConv tmpl", "Ideal (pinned)"},
		Notes: "Paper shape: EfficientNet sits at 13-35 FLOPs/B unfused, crosses 200 only " +
			"with MBConv-block fusion; batching rescues ResNet-50 and BERT-seq128 but not " +
			"EfficientNet or BERT-seq1024. TPU-v3 ridgepoint is 137, A100's 208.",
	}
	cases := []struct {
		name    string
		batches []int64
	}{
		{"efficientnet-b0", []int64{1, 8}},
		{"efficientnet-b7", []int64{1, 8}},
		{"resnet50", []int64{1, 8, 64}},
		{"bert-128", []int64{1, 8, 64}},
		{"bert-1024", []int64{1, 8}},
	}
	for _, c := range cases {
		for _, b := range c.batches {
			g := models.MustBuild(c.name, b)
			t.Rows = append(t.Rows, []string{
				c.name, fmt.Sprintf("%d", b),
				f1(hlo.PartitionNone(g).OpIntensity()),
				f1(hlo.PartitionXLA(g).OpIntensity()),
				f1(hlo.PartitionDSConv(g).OpIntensity()),
				f1(hlo.PartitionMBConv(g).OpIntensity()),
				f1(hlo.IdealOpIntensity(g)),
			})
		}
	}
	return t
}

// fig4PerLayerUtil reproduces Figure 4: EfficientNet-B7 per-block
// fraction of peak FLOPs on TPU-v3.
func fig4PerLayerUtil() Table {
	r := simAll(0, []simJob{{"efficientnet-b7", arch.TPUv3(), sim.BaselineOptions()}})[0]
	t := Table{
		ID:     "fig4",
		Title:  "EfficientNet-B7 per-layer fraction of peak FLOPs on TPU-v3",
		Header: []string{"Block", "Fraction of peak", "Time (ms)"},
		Notes: "Paper shape: early layers (few channels) run far below a good 0.7 " +
			"ratio; utilization improves with channel count; overall 14.8%.",
	}
	for _, b := range r.ByBlock() {
		t.Rows = append(t.Rows, []string{b.Block, f3(b.Utilization), f3(b.Sec * 1e3)})
	}
	return t
}

// fig5BERTBreakdown reproduces Figure 5: BERT per-op-class runtime share
// on TPU-v3 as sequence length sweeps 128→2048.
func fig5BERTBreakdown() Table {
	t := Table{
		ID:     "fig5",
		Title:  "BERT runtime share per op class on TPU-v3 vs sequence length",
		Header: []string{"Seq len", "QKV %", "Feed-forward %", "Self-attention %", "Softmax %", "Other %", "Util"},
		Notes: "Paper shape: QKV+FFN dominate at short sequences; the quadratically " +
			"scaling softmax and self-attention ops dominate beyond ~1024.",
	}
	cfg := arch.TPUv3().Clone("bert-sweep")
	cfg.NativeBatch = 8
	seqs := []int64{128, 256, 512, 1024, 2048}
	jobs := make([]simJob, len(seqs))
	for i, seq := range seqs {
		jobs[i] = simJob{fmt.Sprintf("bert-%d", seq), cfg, sim.BaselineOptions()}
	}
	for i, r := range simAll(0, jobs) {
		shares := map[string]float64{}
		for _, row := range r.ByClass(sim.ClassifyBERT) {
			shares[row.Class] = row.RuntimeShare * 100
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", seqs[i]),
			f1(shares["QKV projection"]),
			f1(shares["Feed-forward"]),
			f1(shares["Self-attention"]),
			f1(shares["Softmax"]),
			f1(shares["Other"]),
			f3(r.Utilization),
		})
	}
	return t
}
