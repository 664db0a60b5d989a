package experiments

import (
	"fmt"

	"fast/internal/arch"
	"fast/internal/core"
	"fast/internal/fusion"
	"fast/internal/power"
	"fast/internal/sim"
)

// baselinePerfPerTDP simulates the die-shrunk TPU-v3 baseline on a
// workload and returns its Perf/TDP; repeated calls across tables hit
// the process-wide plan cache.
func baselinePerfPerTDP(workload string) float64 {
	wr, err := core.EvaluateDesign(arch.DieShrunkTPUv3(), []string{workload}, sim.BaselineOptions())
	if err != nil {
		panic(err)
	}
	return wr[0].Result.PerfPerTDP
}

// table5Designs reproduces Table 5: the modeled TPU-v3, FAST-Large and
// FAST-Small designs on EfficientNet-B7. The FAST columns use the
// exact-ILP fusion solve (node budget per Options), run concurrently.
func table5Designs(o Options) Table {
	o = o.withDefaults()
	t := Table{
		ID:     "table5",
		Title:  "Example designs on EfficientNet-B7 (Table 5)",
		Header: []string{"Metric", "Modeled TPU-v3", "FAST-Large", "FAST-Small"},
		Notes: "Paper: TPU util 0.14 / FAST-Large 0.61 (stall 63%→9%, fusion eff 85%, " +
			"QPS 210→733, Perf/TDP 3.9x) / FAST-Small 0.74 with no fusion (8 MiB GM). " +
			"Shape targets: FAST designs trade array size for utilization; FAST-Large " +
			"relies on fusion, FAST-Small on a low compute:bandwidth ratio.",
	}
	pm := power.Default()
	budget := power.DefaultBudget(pm)
	type col struct {
		cfg  *arch.Config
		opts sim.Options
		res  *sim.Result
	}
	cols := []col{
		{cfg: arch.DieShrunkTPUv3(), opts: sim.BaselineOptions()},
		{cfg: arch.FASTLarge(), opts: o.fullILP()},
		{cfg: arch.FASTSmall(), opts: o.fullILP()},
	}
	jobs := make([]simJob, len(cols))
	for i := range cols {
		jobs[i] = simJob{"efficientnet-b7", cols[i].cfg, cols[i].opts}
	}
	for i, r := range simAll(o.Parallelism, jobs) {
		cols[i].res = r
	}
	row := func(metric string, f func(col) string) {
		t.Rows = append(t.Rows, []string{metric, f(cols[0]), f(cols[1]), f(cols[2])})
	}
	row("Normalized TDP", func(c col) string { return f2(c.res.TDPWatts / budget.MaxTDPW) })
	row("Normalized Area", func(c col) string { return f2(c.res.AreaMM2 / budget.MaxAreaMM2) })
	row("Peak Compute (TFLOPS)", func(c col) string { return f1(c.cfg.PeakFLOPs() / 1e12) })
	row("Peak Bandwidth (GB/s)", func(c col) string { return f1(c.cfg.PeakBandwidthGBs()) })
	row("Batch Size", func(c col) string { return fmt.Sprintf("%dx%d", c.cfg.Cores, c.cfg.NativeBatch) })
	row("Num PEs", func(c col) string { return fmt.Sprintf("%dx%d", c.cfg.Cores, c.cfg.NumPEs()) })
	row("PE Systolic Array", func(c col) string { return fmt.Sprintf("%dx%d", c.cfg.SAy, c.cfg.SAx) })
	row("PE Vector Width", func(c col) string { return fmt.Sprintf("%d", c.cfg.VPUWidth()) })
	row("PE L1 (KiB, i/w/o)", func(c col) string {
		return fmt.Sprintf("%d/%d/%d %s", c.cfg.L1InputKiB, c.cfg.L1WeightKiB, c.cfg.L1OutputKiB, c.cfg.L1Config)
	})
	row("L2 Config", func(c col) string { return c.cfg.L2Config.String() })
	row("Global Buffer (MiB)", func(c col) string { return fmt.Sprintf("%dx%d", c.cfg.Cores, c.cfg.GlobalMiB) })
	row("Compute Utilization", func(c col) string { return f2(c.res.Utilization) })
	row("Pre-fusion Mem Stall %", func(c col) string { return f1(c.res.MemStallPre * 100) })
	row("Fusion Efficiency %", func(c col) string { return f1(c.res.FusionEfficiency * 100) })
	row("OpInt Ridgepoint", func(c col) string { return f1(c.cfg.Ridgepoint()) })
	row("Fused Model OpInt", func(c col) string { return f1(c.res.OpIntensityPost) })
	row("B7 Performance (QPS)", func(c col) string { return f1(c.res.QPS) })
	row("B7 Latency (ms)", func(c col) string { return f1(c.res.LatencySec * 1e3) })
	base := cols[0].res.PerfPerTDP
	row("Normalized Perf/TDP", func(c col) string { return f2(c.res.PerfPerTDP / base) })
	return t
}

// table6Ablation reproduces Table 6: FAST-Large with single components
// reverted to their TPU-v3 values, measured as Perf/TDP vs the die-shrunk
// baseline (and, in parentheses, vs unmodified FAST-Large). Every
// (variant, workload) cell is an exact-ILP simulation; the full cross
// product fans out across one worker pool.
func table6Ablation(o Options) Table {
	o = o.withDefaults()
	t := Table{
		ID:     "table6",
		Title:  "FAST-Large ablation (Perf/TDP vs die-shrunk TPU-v3)",
		Header: []string{"Variant", "EfficientNet-B7", "ResNet50", "BERT-Seq1024"},
		Notes: "Paper: FAST-Large 4.27/2.95/2.39; 16MB GM 2.26/2.20/1.22; no fusion " +
			"1.91/1.74/1.05; 128x128 arrays 2.69/1.41/1.35; 32KB L1 3.20/2.26/1.83. " +
			"Shape targets: every reverted component costs substantial Perf/TDP; the " +
			"GM/fusion reverts hurt most on memory-bound EfficientNet.",
	}
	workloads := []string{"efficientnet-b7", "resnet50", "bert-1024"}
	base := map[string]float64{}
	for _, w := range workloads {
		base[w] = baselinePerfPerTDP(w)
	}

	variants := []struct {
		name string
		cfg  *arch.Config
		opts sim.Options
	}{
		{"FAST-Large", arch.FASTLarge(), o.fullILP()},
		{"With 16MB Global Mem", func() *arch.Config {
			c := arch.FASTLarge().Clone("fl-16mb")
			c.GlobalMiB = 16
			return c
		}(), o.fullILP()},
		{"Without FAST Fusion", arch.FASTLarge().Clone("fl-nofusion"), func() sim.Options {
			so := sim.FASTOptions()
			so.Fusion = fusion.Options{Disable: true}
			return so
		}()},
		{"With 128x128 systolic arrays", func() *arch.Config {
			// Keep peak FLOPS constant: 4 PEs of 128×128 = 64 PEs of 32×32.
			c := arch.FASTLarge().Clone("fl-128sa")
			c.SAx, c.SAy = 128, 128
			c.PEsX, c.PEsY = 2, 2
			c.L1WeightKiB = 64 // a 128x128 tile needs the TPU-sized buffer
			c.L1InputKiB, c.L1OutputKiB = 64, 64
			return c
		}(), o.fullILP()},
		{"With 64KB L1 scratchpads", func() *arch.Config {
			c := arch.FASTLarge().Clone("fl-64kl1")
			c.L1InputKiB, c.L1WeightKiB, c.L1OutputKiB = 64, 64, 64
			return c
		}(), o.fullILP()},
	}

	var jobs []simJob
	for _, v := range variants {
		for _, w := range workloads {
			jobs = append(jobs, simJob{w, v.cfg, v.opts})
		}
	}
	results := simAll(o.Parallelism, jobs)

	flRatio := map[string]float64{}
	for vi, v := range variants {
		row := []string{v.name}
		for wi, w := range workloads {
			r := results[vi*len(workloads)+wi]
			ratio := 0.0
			if !r.ScheduleFailed {
				ratio = r.PerfPerTDP / base[w]
			}
			cell := f2(ratio) + "x"
			if v.name == "FAST-Large" {
				flRatio[w] = ratio
				cell += " (1.00)"
			} else if flRatio[w] > 0 {
				cell += fmt.Sprintf(" (%.2f)", ratio/flRatio[w])
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// fig13FusionSweep reproduces Figure 13: post-fusion operational
// intensity sweeping Global Memory capacity (columns) and batch size
// (rows) on an otherwise-fixed FAST-Large, for EfficientNet-B0 and B7.
// Every grid cell is an independent exact-ILP fusion solve; the whole
// 40-instance sweep fans out across one worker pool.
func fig13FusionSweep(o Options) Table {
	o = o.withDefaults()
	t := Table{
		ID:     "fig13",
		Title:  "Post-fusion op intensity: Global Memory × batch (FAST-Large)",
		Header: []string{"Model", "Batch", "GM 16MiB", "GM 32MiB", "GM 64MiB", "GM 128MiB", "GM 256MiB"},
		Notes: "Paper shape: intensity rises with Global Memory and falls with batch " +
			"(bigger activations crowd out placements under the paper's whole-tensor " +
			"residency assumption, used here); B0 exceeds the 292 ridgepoint easily, " +
			"B7 needs small batches.",
	}
	gms := []int64{16, 32, 64, 128, 256}
	opts := o.fullILP()
	// Figure 13 uses the paper's conservative whole-tensor residency
	// assumption, which is what makes smaller batches win (§5.5).
	opts.WholeTensorFusion = true
	var jobs []simJob
	for _, model := range []string{"efficientnet-b0", "efficientnet-b7"} {
		for _, batch := range []int64{1, 8, 32, 64} {
			for _, gm := range gms {
				cfg := arch.FASTLarge().Clone(fmt.Sprintf("fl-gm%d-b%d", gm, batch))
				cfg.GlobalMiB = gm
				cfg.NativeBatch = batch
				jobs = append(jobs, simJob{model, cfg, opts})
			}
		}
	}
	results := simAll(o.Parallelism, jobs)
	k := 0
	for _, model := range []string{"efficientnet-b0", "efficientnet-b7"} {
		for _, batch := range []int64{1, 8, 32, 64} {
			row := []string{model, fmt.Sprintf("%d", batch)}
			for range gms {
				row = append(row, f1(results[k].OpIntensityPost))
				k++
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// fig14PerLayerFAST reproduces Figure 14: EfficientNet-B7 per-block
// fraction of peak on FAST-Large, with and without fusion, against the
// TPU-v3 curve.
func fig14PerLayerFAST(o Options) Table {
	o = o.withDefaults()
	t := Table{
		ID:     "fig14",
		Title:  "EfficientNet-B7 per-layer fraction of peak: TPU-v3 vs FAST-Large ± fusion",
		Header: []string{"Block", "TPU-v3", "FAST-Large no-fusion", "FAST-Large fused"},
		Notes: "Paper shape: 32x32 arrays lift compute utilization but stay memory-" +
			"bottlenecked until FAST fusion is enabled.",
	}
	tpuCfg := arch.TPUv3()
	fl := arch.FASTLarge()
	noFuseOpts := sim.FASTOptions()
	noFuseOpts.Fusion = fusion.Options{Disable: true}
	results := simAll(o.Parallelism, []simJob{
		{"efficientnet-b7", tpuCfg, sim.BaselineOptions()},
		{"efficientnet-b7", fl, noFuseOpts},
		{"efficientnet-b7", fl, o.fullILP()},
	})
	tpu, noFuse, fused := results[0], results[1], results[2]
	tpuBy := map[string]float64{}
	for _, b := range tpu.ByBlock() {
		tpuBy[b.Block] = b.Utilization
	}
	nfBy := map[string]float64{}
	for _, b := range noFuse.ByBlock() {
		nfBy[b.Block] = b.Utilization
	}
	for _, b := range fused.ByBlock() {
		t.Rows = append(t.Rows, []string{b.Block, f3(tpuBy[b.Block]), f3(nfBy[b.Block]), f3(b.Utilization)})
	}
	return t
}

// fig15Breakdown reproduces Figure 15: the additive contribution of FAST
// scheduling, datapath, and fusion over a single TPU-v3 core on
// EfficientNet-B7 (comparing against a halved FAST-Large with 32 PEs).
func fig15Breakdown(o Options) Table {
	o = o.withDefaults()
	t := Table{
		ID:     "fig15",
		Title:  "Component breakdown vs single TPU-v3 core (EfficientNet-B7 QPS)",
		Header: []string{"Configuration", "QPS", "Speedup vs baseline"},
		Notes: "Paper shape: scheduling alone is modest; datapath without fusion stalls " +
			"at the bandwidth wall (no benefit from a larger Global Memory); fusion " +
			"unlocks the datapath's utilization gains. Improvements are additive.",
	}
	// Single TPU-v3 core baseline.
	oneCore := arch.TPUv3().Clone("tpu-v3-1core")
	oneCore.Cores = 1
	oneCore.MemChannels = 2 // 450 GB/s for the single core

	// Halved FAST-Large: 32 PEs.
	halfFL := arch.FASTLarge().Clone("fast-large-half")
	halfFL.PEsX, halfFL.PEsY = 8, 4

	noFuse := func() sim.Options {
		so := sim.FASTOptions()
		so.Fusion = fusion.Options{Disable: true}
		return so
	}
	rows := []struct {
		name string
		cfg  *arch.Config
		opts sim.Options
	}{
		{"TPU-v3 core (production schedule)", oneCore, sim.BaselineOptions()},
		{"+ FAST scheduling", oneCore, noFuse()},
		{"+ datapath (32 PEs of 32x32, 128MiB GM), no fusion", halfFL, noFuse()},
		{"+ FAST fusion (full stack)", halfFL, o.fullILP()},
	}
	jobs := make([]simJob, len(rows))
	for i, rc := range rows {
		jobs[i] = simJob{"efficientnet-b7", rc.cfg, rc.opts}
	}
	results := simAll(o.Parallelism, jobs)
	baseQPS := results[0].QPS
	for i, rc := range rows {
		t.Rows = append(t.Rows, []string{rc.name, f1(results[i].QPS), f2(results[i].QPS/baseQPS) + "x"})
	}
	return t
}
