package fast

// The benchmark harness: one testing.B benchmark per table and figure in
// the paper's evaluation, each named after it and running the
// internal/experiments generator of that id, plus ablation benches for
// the design choices the simulator exposes.
//
// Run everything:        go test -bench=. -benchmem
// Regenerate one table:  go test -bench=Table5 -v
// Full-budget runs:      use cmd/fast-experiments (flags -trials, -seed).
//
// Search-based benches use compressed trial budgets so the whole suite
// completes in minutes; each b.N iteration regenerates the complete
// table, and the table is printed once under -v via b.Log.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"fast/internal/arch"
	"fast/internal/experiments"
	"fast/internal/fusion"
	"fast/internal/mapping"
	"fast/internal/models"
	"fast/internal/sim"
)

// benchOpts compresses the expensive experiments for the bench harness.
var benchOpts = experiments.Options{
	SearchTrials:      24,
	ConvergenceTrials: 30,
	Repeats:           1,
	Seed:              1,
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	gen, ok := experiments.Registry(benchOpts)[id]
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var tab experiments.Table
	for i := 0; i < b.N; i++ {
		tab = gen()
	}
	if len(tab.Rows) == 0 {
		b.Fatalf("%s produced no rows", id)
	}
	b.Log("\n" + tab.String())
}

func BenchmarkTable1WorkingSets(b *testing.B)      { runExperiment(b, "table1") }
func BenchmarkTable2OpBreakdown(b *testing.B)      { runExperiment(b, "table2") }
func BenchmarkFig2StepTimeVsAccuracy(b *testing.B) { runExperiment(b, "fig2") }
func BenchmarkFig3OpIntensity(b *testing.B)        { runExperiment(b, "fig3") }
func BenchmarkFig4PerLayerUtil(b *testing.B)       { runExperiment(b, "fig4") }
func BenchmarkFig5BERTBreakdown(b *testing.B)      { runExperiment(b, "fig5") }
func BenchmarkFig6ROICurves(b *testing.B)          { runExperiment(b, "fig6") }
func BenchmarkFig9Speedup(b *testing.B)            { runExperiment(b, "fig9") }
func BenchmarkFig10PerfPerTDP(b *testing.B)        { runExperiment(b, "fig10") }
func BenchmarkFig11Convergence(b *testing.B)       { runExperiment(b, "fig11") }
func BenchmarkFig12Pareto(b *testing.B)            { runExperiment(b, "fig12") }
func BenchmarkFig13FusionSweep(b *testing.B)       { runExperiment(b, "fig13") }
func BenchmarkFig14PerLayerFAST(b *testing.B)      { runExperiment(b, "fig14") }
func BenchmarkFig15Breakdown(b *testing.B)         { runExperiment(b, "fig15") }
func BenchmarkTable4ROIVolumes(b *testing.B)       { runExperiment(b, "table4") }
func BenchmarkTable5Designs(b *testing.B)          { runExperiment(b, "table5") }
func BenchmarkTable6Ablation(b *testing.B)         { runExperiment(b, "table6") }
func BenchmarkDecodeServing(b *testing.B)          { runExperiment(b, "decode") }

// --- Ablation benches for the simulator's design choices ---

// benchSimulate times one full simulation of a workload on a design.
// Graph construction happens before the timer starts, and each variant
// reports sims/s so throughput numbers are comparable across PRs.
func benchSimulate(b *testing.B, workload string, cfg *arch.Config, opts sim.Options) float64 {
	b.Helper()
	g := models.MustBuild(workload, cfg.NativeBatch)
	var last float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sim.Simulate(g, cfg, opts)
		if err != nil {
			b.Fatal(err)
		}
		if r.ScheduleFailed {
			b.Fatalf("schedule failure: %s", r.FailReason)
		}
		last = r.QPS
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sims/s")
	return last
}

// BenchmarkAblationTwoPassSoftmax compares the §5.6 softmax variants on
// unfused BERT-1024 (TPU-v3).
func BenchmarkAblationTwoPassSoftmax(b *testing.B) {
	for _, variant := range []struct {
		name    string
		twoPass bool
	}{{"three-pass", false}, {"two-pass", true}} {
		b.Run(variant.name, func(b *testing.B) {
			opts := sim.Options{TwoPassSoftmax: variant.twoPass,
				Fusion: fusion.Options{Disable: true}}
			qps := benchSimulate(b, "bert-1024", arch.TPUv3(), opts)
			b.ReportMetric(qps, "qps")
		})
	}
}

// BenchmarkAblationFusionSolver compares the greedy incumbent against the
// ILP-backed fusion solve on EfficientNet-B7/FAST-Large.
func BenchmarkAblationFusionSolver(b *testing.B) {
	for _, variant := range []struct {
		name   string
		greedy bool
	}{{"greedy", true}, {"ilp", false}} {
		b.Run(variant.name, func(b *testing.B) {
			opts := sim.FASTOptions()
			opts.Fusion.GreedyOnly = variant.greedy
			qps := benchSimulate(b, "efficientnet-b7", arch.FASTLarge(), opts)
			b.ReportMetric(qps, "qps")
		})
	}
}

// BenchmarkAblationMappingSchemes restricts the mapper to the production
// scheme set to isolate the 1-D systolic depthwise mapping's value.
func BenchmarkAblationMappingSchemes(b *testing.B) {
	for _, variant := range []struct {
		name    string
		schemes []mapping.Scheme
	}{
		{"all-schemes", nil},
		{"ws-os-only", []mapping.Scheme{mapping.WeightStationary, mapping.OutputStationary}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			opts := sim.FASTOptions()
			opts.Mapping = mapping.Options{Schemes: variant.schemes}
			qps := benchSimulate(b, "efficientnet-b7", arch.FASTLarge(), opts)
			b.ReportMetric(qps, "qps")
		})
	}
}

// BenchmarkAblationL2Enable measures the TDP-vs-blocking trade of
// enabling the optional L2 (§6.2.5: L2 raises power-virus TDP).
func BenchmarkAblationL2Enable(b *testing.B) {
	for _, variant := range []struct {
		name string
		l2   arch.BufferConfig
	}{{"l2-disabled", arch.Disabled}, {"l2-shared", arch.Shared}} {
		b.Run(variant.name, func(b *testing.B) {
			cfg := arch.FASTLarge().Clone("l2-ablation")
			cfg.L2Config = variant.l2
			cfg.L2InputMult, cfg.L2WeightMult, cfg.L2OutputMult = 4, 4, 4
			g := models.MustBuild("efficientnet-b7", cfg.NativeBatch)
			var perfPerTDP float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := sim.Simulate(g, cfg, sim.FASTOptions())
				if err != nil {
					b.Fatal(err)
				}
				perfPerTDP = r.PerfPerTDP
			}
			b.ReportMetric(perfPerTDP, "qps/W")
		})
	}
}

// BenchmarkSearchThroughput measures end-to-end search throughput in
// trials/sec on the quickstart study (EfficientNet-B0, LCS, Perf/TDP)
// at parallelism 1 vs 4 — the perf baseline for future scaling PRs.
// Both settings explore the identical trajectory (fixed seed), so the
// trials/s ratio isolates the worker pool's contribution; on a
// multi-core box parallel-4 should sit well above parallel-1.
func BenchmarkSearchThroughput(b *testing.B) {
	const trials = 64
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallel-%d", par), func(b *testing.B) {
			// Untimed warm-up so the first variant doesn't pay the
			// process-wide graph-cache fills the later ones reuse.
			if _, err := (&Study{
				Workloads: []string{"efficientnet-b0"},
				Objective: ObjectivePerfPerTDP,
				Algorithm: AlgorithmLCS,
				Trials:    trials,
				Seed:      1,
			}).Run(context.Background(), WithParallelism(par)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := (&Study{
					Workloads: []string{"efficientnet-b0"},
					Objective: ObjectivePerfPerTDP,
					Algorithm: AlgorithmLCS,
					Trials:    trials,
					Seed:      1,
				}).Run(context.Background(), WithParallelism(par))
				if err != nil {
					b.Fatal(err)
				}
				if res.Best == nil {
					b.Fatal("no feasible design in the quickstart study")
				}
			}
			b.ReportMetric(float64(trials*b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}

// BenchmarkDecodeSearchThroughput measures end-to-end search throughput
// on the autoregressive decode workload (GPT-2-small, one token over a
// 1024-entry KV cache). Decode trials exercise the KV-residency branch
// of the fusion solve on every candidate, so this is the decoder
// counterpart of BenchmarkSearchThroughput's encoder baseline.
func BenchmarkDecodeSearchThroughput(b *testing.B) {
	const trials = 64
	study := func() *Study {
		return &Study{
			Workloads: []string{"gpt2-decode-1024"},
			Objective: ObjectivePerfPerTDP,
			Algorithm: AlgorithmLCS,
			Trials:    trials,
			Seed:      1,
		}
	}
	// Untimed warm-up fills the process-wide graph cache.
	if _, err := study().Run(context.Background(), WithParallelism(1)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := study().Run(context.Background(), WithParallelism(1))
		if err != nil {
			b.Fatal(err)
		}
		if res.Best == nil {
			b.Fatal("no feasible design in the decode study")
		}
	}
	b.ReportMetric(float64(trials*b.N)/b.Elapsed().Seconds(), "trials/s")
}

// BenchmarkDecodeEvaluate times the warm-cache evaluate on the decode
// plan, where every region carries KV-cache traffic and the fusion
// solve weighs cache slabs against pinned weights for Global Memory —
// the per-trial cost a decode-workload search pays after Compile.
func BenchmarkDecodeEvaluate(b *testing.B) {
	cfg := arch.FASTDecode()
	g := models.MustBuild("gpt2-decode-1024", cfg.NativeBatch)
	plan, err := sim.Compile(g, sim.FASTOptions())
	if err != nil {
		b.Fatal(err)
	}
	var kv int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := plan.Evaluate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.ScheduleFailed {
			b.Fatalf("schedule failure: %s", r.FailReason)
		}
		kv = 0
		for ri := range r.Regions {
			kv += r.Regions[ri].KVBytes
		}
	}
	if kv == 0 {
		b.Fatal("decode plan reported no KV-cache traffic")
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "evals/s")
}

// BenchmarkSimulatorThroughput times raw simulator invocations per
// workload (the quantity that bounds search throughput).
func BenchmarkSimulatorThroughput(b *testing.B) {
	for _, w := range []string{"efficientnet-b0", "efficientnet-b7", "resnet50", "bert-1024", "ocr-rpn", "ocr-recognizer", "gpt2-prefill-1024", "gpt2-decode-1024"} {
		b.Run(w, func(b *testing.B) {
			benchSimulate(b, w, arch.FASTLarge(), sim.FASTOptions())
		})
	}
}

// BenchmarkCompile times the design-independent phase: sim.Compile on
// the quickstart workload. A search pays this once per (workload,
// options) pair, not per trial.
func BenchmarkCompile(b *testing.B) {
	cfg := arch.FASTLarge()
	g := models.MustBuild("efficientnet-b0", cfg.NativeBatch)
	opts := sim.FASTOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Compile(g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluate times the design-dependent phase alone: one shared
// compiled plan evaluated per iteration — the per-trial cost of the
// search hot path after the Compile/Evaluate split.
func BenchmarkEvaluate(b *testing.B) {
	cfg := arch.FASTLarge()
	g := models.MustBuild("efficientnet-b0", cfg.NativeBatch)
	plan, err := sim.Compile(g, sim.FASTOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := plan.Evaluate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.ScheduleFailed {
			b.Fatalf("schedule failure: %s", r.FailReason)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "evals/s")
}

// BenchmarkEvaluateBatch times the factored evaluator on a sweep-shaped
// batch: 64 designs mutated a few parameters at a time around FAST-Large
// (the distribution an ask/tell optimizer batch feeds EvaluateBatch), on
// a freshly compiled plan each iteration. A greedy plan memoizes nothing
// Evaluate or EvaluateBatch computes (only ScoreBatch's Scores), so
// evals/s here and in BenchmarkEvaluate (one design, evaluated again
// and again) differ by the designs' mix, not by a memo.
func BenchmarkEvaluateBatch(b *testing.B) {
	base := arch.FASTLarge()
	g := models.MustBuild("efficientnet-b0", base.NativeBatch)
	space := arch.Space{}
	dims := space.Dims()
	rng := rand.New(rand.NewSource(1))
	idx := space.Encode(base)
	idx[arch.PNativeBatch] = 3 // keep one plan: the batch is a plan input upstream
	const batch = 64
	cfgs := make([]*arch.Config, batch)
	for i := range cfgs {
		for m := 0; m < 1+rng.Intn(3); m++ {
			d := rng.Intn(arch.NumParams)
			if d == arch.PNativeBatch {
				continue
			}
			idx[d] = rng.Intn(dims[d])
		}
		cfgs[i] = space.Decode(idx, base)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		plan, err := sim.Compile(g, sim.FASTOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := plan.EvaluateBatch(cfgs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "evals/s")
}

// BenchmarkFullILPEvaluate measures the exact-ILP fusion evaluate path
// — the winner re-simulation / reporting-table workload — on three
// ILP-dominated reference instances with the sparse revised-simplex
// core (internal/ilp's BenchmarkFullILPDense times the frozen
// dense-tableau reference on the same instances). Each iteration
// perturbs the clock so the plan's fusion-assignment memo misses and
// every design pays a fresh branch-and-bound solve; the mapping and the
// roll-up around it are small next to the solve, so the benchmark
// isolates the ILP. nodes/op reports branch-and-bound nodes explored per
// iteration across the three instances.
func BenchmarkFullILPEvaluate(b *testing.B) {
	instances := []struct {
		model string
		cfg   *arch.Config
	}{
		{"ocr-rpn", arch.FASTSmall()},
		{"resnet50", arch.FASTSmall()},
		{"bert-1024", arch.FASTSmall()},
	}
	opts := sim.FASTOptions()
	opts.Fusion.GreedyOnly = false
	// The default node budget leaves these solves far from any stop but
	// a proof, so ns/op times full exact solves, not incumbent cutoffs.
	plans := make([]*sim.Plan, len(instances))
	for i, inst := range instances {
		g := models.MustBuild(inst.model, inst.cfg.NativeBatch)
		p, err := sim.Compile(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		// An untimed first evaluation sizes the pooled scratch.
		if _, err := p.Evaluate(inst.cfg); err != nil {
			b.Fatal(err)
		}
		plans[i] = p
	}
	var nodes int64
	// B/op is the memory guard: problem build, basis factors and the
	// branch-and-bound frontier are all allocations.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, inst := range instances {
			cfg := inst.cfg.Clone("ilp-bench")
			cfg.ClockGHz += float64(i%512+1) * 1e-4
			r, err := plans[k].Evaluate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if r.ScheduleFailed {
				b.Fatalf("%s: schedule failure", inst.model)
			}
			if r.Fusion.Method != "ilp-optimal" {
				b.Fatalf("%s: method %s, want proven optimality", inst.model, r.Fusion.Method)
			}
			nodes += int64(r.Fusion.Nodes)
		}
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}
