package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"fast/internal/arch"
	"fast/internal/core"
	"fast/internal/models"
	"fast/internal/power"
	"fast/internal/roi"
	"fast/internal/search"
	"fast/internal/sim"
)

// runStudy executes one FAST search study at the harness parallelism.
// The study's software stack carries the harness ILP node budget, so
// the final winner re-simulation (the study's exact-ILP pass) honours
// the same per-solve budget as the reporting tables.
func runStudy(o Options, workloads []string, obj core.ObjectiveKind, trials int, seed int64) *core.StudyResult {
	o = o.withDefaults()
	simOpts := sim.FASTOptions()
	simOpts.Fusion.MaxNodes = o.ILPNodes
	res, err := (&core.Study{
		Workloads:  workloads,
		Objective:  obj,
		Algorithm:  search.AlgLCS,
		Trials:     trials,
		Seed:       seed,
		SimOptions: &simOpts,
	}).Run(context.Background(), core.WithParallelism(o.Parallelism))
	if err != nil {
		panic(err)
	}
	return res
}

// speedups runs the Figure 9/10 protocol: per-workload single-workload
// searches plus one multi-workload search, all measured against the
// die-shrunk TPU-v3 baseline with metric f.
type speedupRow struct {
	workload string
	schedOnly,
	single,
	multi float64
}

func searchSpeedups(o Options, obj core.ObjectiveKind, metric func(*sim.Result) float64) []speedupRow {
	suite := models.FullSuite()
	multiRes := runStudy(o, models.MultiWorkloadSuite(), obj, o.SearchTrials, o.Seed+1000)

	// Per-workload baseline and scheduling+fusion reporting sims: 2×|suite|
	// independent jobs (the sched column carries an exact-ILP fusion solve
	// on the TPU-v3 datapath), fanned out before the per-workload studies.
	tpu := arch.DieShrunkTPUv3()
	jobs := make([]simJob, 0, 2*len(suite))
	for _, w := range suite {
		jobs = append(jobs,
			simJob{w, tpu, sim.BaselineOptions()},
			simJob{w, tpu, o.fullILP()})
	}
	sims := simAll(o.Parallelism, jobs)

	// The multi-workload winner's per-workload exact-ILP evaluations are
	// independent too: one EvaluateDesign call over the whole suite fans
	// them out together instead of one serial solve per row.
	var multiWR []core.WorkloadResult
	if multiRes.Best != nil {
		var err error
		multiWR, err = core.EvaluateDesign(multiRes.Best, suite, o.fullILP())
		if err != nil {
			panic(err)
		}
	}

	var rows []speedupRow
	for i, w := range suite {
		base, sched := sims[2*i], sims[2*i+1]
		baseV := metric(base)

		// Single-workload search.
		single := runStudy(o, []string{w}, obj, o.SearchTrials, o.Seed+int64(i))
		singleV := 0.0
		if single.Best != nil {
			singleV = metric(single.PerWorkload[0].Result)
		}

		// Multi-workload design evaluated on this workload.
		multiV := 0.0
		if multiWR != nil && !multiWR[i].Result.ScheduleFailed {
			multiV = metric(multiWR[i].Result)
		}
		rows = append(rows, speedupRow{
			workload:  w,
			schedOnly: metric(sched) / baseV,
			single:    singleV / baseV,
			multi:     multiV / baseV,
		})
	}
	return rows
}

func geoMeanOf(rows []speedupRow, pick func(speedupRow) float64, subset map[string]bool) float64 {
	sum, n := 0.0, 0
	for _, r := range rows {
		if subset != nil && !subset[r.workload] {
			continue
		}
		v := pick(r)
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func speedupTable(id, title, note string, rows []speedupRow) Table {
	t := Table{
		ID:     id,
		Title:  title,
		Header: []string{"Workload", "FAST sched/fusion", "FAST search (single)", "FAST search (multi)"},
		Notes:  note,
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.workload, f2(r.schedOnly) + "x", f2(r.single) + "x", f2(r.multi) + "x",
		})
	}
	five := map[string]bool{}
	for _, w := range models.MultiWorkloadSuite() {
		five[w] = true
	}
	t.Rows = append(t.Rows, []string{"GeoMean",
		f2(geoMeanOf(rows, func(r speedupRow) float64 { return r.schedOnly }, nil)) + "x",
		f2(geoMeanOf(rows, func(r speedupRow) float64 { return r.single }, nil)) + "x",
		""})
	t.Rows = append(t.Rows, []string{"GeoMean-5",
		f2(geoMeanOf(rows, func(r speedupRow) float64 { return r.schedOnly }, five)) + "x",
		f2(geoMeanOf(rows, func(r speedupRow) float64 { return r.single }, five)) + "x",
		f2(geoMeanOf(rows, func(r speedupRow) float64 { return r.multi }, five)) + "x"})
	return t
}

// fig9Speedup reproduces Figure 9: modeled inference throughput relative
// to TPU-v3 under the pure-performance objective.
func fig9Speedup(o Options) Table {
	o = o.withDefaults()
	rows := searchSpeedups(o, core.Perf, func(r *sim.Result) float64 { return r.QPS })
	return speedupTable("fig9",
		"Throughput vs TPU-v3 (performance objective)",
		"Paper shape: scheduling/fusion alone ≈1.7x; single-workload search ≈3.8x "+
			"average with EfficientNets highest; multi-workload ≈3.1x on the 5-suite; "+
			"OCR stages gain least (already TPU-efficient).",
		rows)
}

// fig10PerfPerTDP reproduces Figure 10: Perf/TDP relative to the
// die-shrunk TPU-v3 under the Perf/TDP objective.
func fig10PerfPerTDP(o Options) Table {
	o = o.withDefaults()
	rows := searchSpeedups(o, core.PerfPerTDP, func(r *sim.Result) float64 { return r.PerfPerTDP })
	return speedupTable("fig10",
		"Perf/TDP vs die-shrunk TPU-v3 (Perf/TDP objective)",
		"Paper shape: 3.7x average across all workloads (EfficientNet 6.4x, BERT 2.7x), "+
			"2.4x for the multi-workload design on its 5-suite.",
		rows)
}

// fig11Convergence reproduces Figure 11: best-so-far Perf/TDP on
// EfficientNet-B7 for the Bayesian, LCS and random heuristics (mean over
// repeats).
func fig11Convergence(o Options) Table {
	o = o.withDefaults()
	t := Table{
		ID:     "fig11",
		Title:  "Search convergence on EfficientNet-B7 (mean best-so-far Perf/TDP vs TPU-v3)",
		Header: []string{"Trials", "Random", "LCS", "Bayesian"},
		Notes: "Paper shape: all heuristics converge; LCS overtakes beyond ~2000 trials " +
			"(here compressed into a smaller budget; LCS/Bayesian lead random).",
	}
	base := baselinePerfPerTDP("efficientnet-b7")
	algs := []search.Algorithm{search.AlgRandom, search.AlgLCS, search.AlgBayes}
	curves := make([][]float64, len(algs))
	for ai, alg := range algs {
		mean := make([]float64, o.ConvergenceTrials)
		for rep := 0; rep < o.Repeats; rep++ {
			res, err := (&core.Study{
				Workloads: []string{"efficientnet-b7"},
				Objective: core.PerfPerTDP,
				Algorithm: alg,
				Trials:    o.ConvergenceTrials,
				Seed:      o.Seed + int64(rep)*37,
			}).Run(context.Background(), core.WithParallelism(o.Parallelism))
			if err != nil {
				panic(err)
			}
			for i, v := range res.Search.BestSoFar() {
				if !math.IsNaN(v) {
					mean[i] += v / float64(o.Repeats)
				}
			}
		}
		curves[ai] = mean
	}
	points := []int{0, 1, 2, 3, 4, 6, 9} // fractions of the budget
	for _, p := range points {
		i := p * (o.ConvergenceTrials - 1) / 9
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", i+1),
			f2(curves[0][i] / base), f2(curves[1][i] / base), f2(curves[2][i] / base),
		})
	}
	return t
}

// fig12Pareto reproduces Figure 12: the Pareto frontier of
// EfficientNet-B7 step time vs TDP and area, normalized to the die-shrunk
// TPU-v3 point (1.0, 1.0).
func fig12Pareto(o Options) Table {
	o = o.withDefaults()
	t := Table{
		ID:     "fig12",
		Title:  "EfficientNet-B7 Pareto frontier: step time vs TDP / area (TPU-v3 = 1.0)",
		Header: []string{"Step time (rel)", "TDP (rel)", "Area (rel)"},
		Notes: "Paper shape: FAST finds a frontier strictly dominating the baseline " +
			"point, spanning embedded-class (tiny, slower) to datacenter-class designs.",
	}
	base := simAll(o.Parallelism, []simJob{{"efficientnet-b7", arch.DieShrunkTPUv3(), sim.BaselineOptions()}})[0]
	baseStep := 1.0 / base.QPS

	// Sample the space and keep Pareto-optimal feasible points in the
	// (step time, TDP) plane.
	pm := power.Default()
	budget := power.DefaultBudget(pm)
	type point struct {
		step, tdp, area float64
		failed          bool
	}
	res, err := (&core.Study{
		Workloads: []string{"efficientnet-b7"},
		Objective: core.PerfPerTDP,
		Algorithm: search.AlgRandom,
		Trials:    o.SearchTrials * 2,
		Seed:      o.Seed + 5,
	}).Run(context.Background(), core.WithParallelism(o.Parallelism))
	if err != nil {
		panic(err)
	}
	var jobs []simJob
	platform := core.DefaultPlatform()
	for _, tr := range res.Search.History {
		if tr.Feasible {
			jobs = append(jobs, simJob{"efficientnet-b7", arch.Space{}.Decode(tr.Index, platform), sim.FASTOptions()})
		}
	}
	pts := make([]point, len(jobs))
	simEach(o.Parallelism, jobs, func(i int, r *sim.Result) {
		pts[i] = point{
			step:   (1.0 / r.QPS) / baseStep,
			tdp:    r.TDPWatts / budget.MaxTDPW / (base.TDPWatts / budget.MaxTDPW),
			area:   r.AreaMM2 / base.AreaMM2,
			failed: r.ScheduleFailed,
		}
	})
	pts = slices.DeleteFunc(pts, func(p point) bool { return p.failed })
	sort.Slice(pts, func(i, j int) bool { return pts[i].tdp < pts[j].tdp })
	bestStep := math.Inf(1)
	var frontier []point
	for _, p := range pts {
		if p.step < bestStep {
			bestStep = p.step
			frontier = append(frontier, p)
		}
	}
	for _, p := range frontier {
		t.Rows = append(t.Rows, []string{f3(p.step), f2(p.tdp), f2(p.area)})
	}
	t.Rows = append(t.Rows, []string{"1.000", "1.00", "1.00 (TPU-v3 baseline)"})
	return t
}

// frontierTradeoff reproduces the paper's frontier reading of the
// Figure 12 / Table 5 data with one multi-objective study: the Pareto
// front of Perf/TDP against die area on EfficientNet-B7 (the FAST-Large
// / FAST-Small reference workload), normalized to the die-shrunk TPU-v3
// baseline, with the two published reference designs placed on the same
// axes. Unlike Fig12Pareto — which filters a scalar study's history
// after the fact — the frontier here is searched directly: NSGA-II
// keeps a non-dominated population, so the table is the study's
// Front(), not a post-hoc scan.
func frontierTradeoff(o Options) Table {
	o = o.withDefaults()
	t := Table{
		ID:     "frontier",
		Title:  "Perf/TDP vs area Pareto frontier on EfficientNet-B7 (TPU-v3 = 1.0)",
		Header: []string{"Design", "Perf/TDP (rel)", "Area (rel)"},
		Notes: "Paper shape: the searched frontier dominates the baseline point and " +
			"brackets the published designs — FAST-Large near the big, fast end, " +
			"FAST-Small near the small end at higher efficiency per area.",
	}
	refs := []*arch.Config{arch.FASTLarge(), arch.FASTSmall()}
	jobs := []simJob{{"efficientnet-b7", arch.DieShrunkTPUv3(), sim.BaselineOptions()}}
	for _, ref := range refs {
		jobs = append(jobs, simJob{"efficientnet-b7", ref, sim.FASTOptions()})
	}
	sims := simAll(o.Parallelism, jobs)
	base := sims[0]
	res, err := (&core.Study{
		Workloads:  []string{"efficientnet-b7"},
		Objectives: []core.ObjectiveKind{core.PerfPerTDP, core.Area},
		Trials:     o.SearchTrials,
		Seed:       o.Seed + 12,
		FrontCap:   8,
	}).Run(context.Background(), core.WithParallelism(o.Parallelism))
	if err != nil {
		panic(err)
	}
	for i, p := range res.Front() {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("front-%02d", i),
			f2(p.Values[0] / base.PerfPerTDP),
			f2(p.Values[1] / base.AreaMM2),
		})
	}
	for i, ref := range refs {
		r := sims[i+1]
		t.Rows = append(t.Rows, []string{
			ref.Name,
			f2(r.PerfPerTDP / base.PerfPerTDP),
			f2(r.AreaMM2 / base.AreaMM2),
		})
	}
	t.Rows = append(t.Rows, []string{"tpu-v3-dieshrink (baseline)", "1.00", "1.00"})
	return t
}

// fig6ROICurves reproduces Figure 6: ROI vs deployment volume for
// hypothetical Perf/TCO improvements.
func fig6ROICurves() Table {
	t := Table{
		ID:     "fig6",
		Title:  "ROI vs deployment volume (A100-referenced cost model)",
		Header: []string{"Accelerators", "1.5x", "2x", "4x", "10x", "100x"},
		Notes: "Paper shape: volume dominates; every Perf/TCO > 1 becomes profitable " +
			"with enough units; returns diminish in S (8000 units at 1.5x beat 2000 at 100x).",
	}
	p := roi.Default()
	speedups := []float64{1.5, 2, 4, 10, 100}
	for _, n := range []float64{500, 1000, 2000, 4000, 8000, 16000, 32000} {
		row := []string{fmt.Sprintf("%.0f", n)}
		for _, s := range speedups {
			row = append(row, f2(p.ROI(s, n)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// table4ROIVolumes reproduces Table 4: deployment volumes required to
// reach 1x/2x/4x/8x ROI per workload, using the Figure 10 single-workload
// Perf/TDP speedups as the Perf/TCO proxy.
func table4ROIVolumes(o Options) Table {
	o = o.withDefaults()
	t := Table{
		ID:     "table4",
		Title:  "Deployment volume for ROI targets (from searched Perf/TDP speedups)",
		Header: []string{"Target Workload", "Perf/TCO", "1x ROI", "2x ROI", "4x ROI", "8x ROI"},
		Notes: "Paper: break-even volumes 2,164-3,534 units for speedups 1.84-3.91x. " +
			"Speedups here come from this run's searches, so volumes shift with them; " +
			"the 1/(1-1/S) scaling and the 2-4k break-even band are the shape targets.",
	}
	p := roi.Default()
	workloads := []string{"efficientnet-b7", "resnet50", "ocr-rpn", "ocr-recognizer", "bert-128", "bert-1024"}
	addRow := func(name string, s float64) {
		row := []string{name, f2(s) + "x"}
		for _, target := range []float64{1, 2, 4, 8} {
			v := p.VolumeForROI(s, target)
			if math.IsInf(v, 1) {
				row = append(row, "∞")
			} else {
				row = append(row, fmt.Sprintf("%.0f", v))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	for i, w := range workloads {
		res := runStudy(o, []string{w}, core.PerfPerTDP, o.SearchTrials, o.Seed+int64(100+i))
		s := 0.0
		if res.Best != nil {
			s = res.PerWorkload[0].Result.PerfPerTDP / baselinePerfPerTDP(w)
		}
		addRow(w, s)
	}
	multi := runStudy(o, models.MultiWorkloadSuite(), core.PerfPerTDP, o.SearchTrials, o.Seed+200)
	if multi.Best != nil {
		s := core.GeoMean(multi.PerWorkload, func(r *sim.Result) float64 { return r.PerfPerTDP })
		baseGM := 1.0
		prod := 1.0
		for _, w := range models.MultiWorkloadSuite() {
			prod *= baselinePerfPerTDP(w)
		}
		baseGM = math.Pow(prod, 1.0/float64(len(models.MultiWorkloadSuite())))
		addRow("Multi-Workload", s/baseGM)
	}
	return t
}
