package core

import (
	"context"
	"sync"
	"testing"

	"fast/internal/arch"
	"fast/internal/power"
	"fast/internal/search"
	"fast/internal/sim"
)

func TestStudyValidation(t *testing.T) {
	if _, err := (&Study{Trials: 10}).Run(context.Background()); err == nil {
		t.Error("empty workloads must error")
	}
	if _, err := (&Study{Workloads: []string{"efficientnet-b0"}}).Run(context.Background()); err == nil {
		t.Error("zero trials must error")
	}
	if _, err := (&Study{Workloads: []string{"nope"}, Trials: 5}).Run(context.Background()); err == nil {
		t.Error("unknown workload must error")
	}
	// Objective validation lives with the spec the study resolves into.
	w := []string{"efficientnet-b0"}
	if _, err := (&Study{Workloads: w, Trials: 5, Objective: TDP}).Run(context.Background()); err == nil {
		t.Error("a scalar study cannot minimize: TDP must error")
	}
	if _, err := (&Study{Workloads: w, Trials: 5, Objectives: []ObjectiveKind{Perf, ObjectiveKind(9)}}).Run(context.Background()); err == nil {
		t.Error("out-of-range objective kind must error")
	}
}

func TestSingleWorkloadSearchBeatsTPUBaseline(t *testing.T) {
	// The core claim (Fig. 10): a modest-budget search finds a design with
	// higher Perf/TDP than the die-shrunk TPU-v3 on EfficientNet-B0.
	st := &Study{
		Workloads: []string{"efficientnet-b0"},
		Objective: PerfPerTDP,
		Algorithm: search.AlgLCS,
		Trials:    60,
		Seed:      1,
	}
	res, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no feasible design found")
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatalf("best design invalid: %v", err)
	}
	base, err := EvaluateDesign(arch.DieShrunkTPUv3(), []string{"efficientnet-b0"}, sim.BaselineOptions())
	if err != nil {
		t.Fatal(err)
	}
	gain := res.PerWorkload[0].Result.PerfPerTDP / base[0].Result.PerfPerTDP
	if gain < 1.5 {
		t.Errorf("searched design Perf/TDP gain = %.2fx, want > 1.5x (paper: ~6x for EfficientNets)", gain)
	}
	// Constraint check (Eq. 4).
	pm := power.Default()
	b := power.DefaultBudget(pm)
	if !b.Within(pm, res.Best) {
		t.Error("best design violates the budget")
	}
}

func TestMultiWorkloadGeoMeanObjective(t *testing.T) {
	st := &Study{
		Workloads: []string{"efficientnet-b0", "resnet50"},
		Objective: PerfPerTDP,
		Algorithm: search.AlgRandom,
		Trials:    40,
		Seed:      2,
	}
	res, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no feasible design")
	}
	if len(res.PerWorkload) != 2 {
		t.Fatalf("per-workload results = %d", len(res.PerWorkload))
	}
	// The study value must equal the geomean of per-trial metrics within
	// greedy-vs-ILP slack.
	gm := GeoMean(res.PerWorkload, func(r *sim.Result) float64 { return r.PerfPerTDP })
	if gm < res.BestValue*0.9 {
		t.Errorf("final geomean %.3g far below search value %.3g", gm, res.BestValue)
	}
}

func TestLatencyBound(t *testing.T) {
	// A very tight latency bound must constrain the chosen design (all
	// results obey it), or make the study infeasible.
	st := &Study{
		Workloads:       []string{"efficientnet-b0"},
		Objective:       Perf,
		Algorithm:       search.AlgRandom,
		Trials:          40,
		Seed:            3,
		LatencyBoundSec: 0.015,
	}
	res, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != nil {
		for _, wr := range res.PerWorkload {
			if wr.Result.LatencySec > 0.015*1.05 {
				t.Errorf("latency bound violated: %.1fms", wr.Result.LatencySec*1e3)
			}
		}
	}
}

func TestPerfObjectiveFillsBudget(t *testing.T) {
	// §6.2.1: "when provided with pure performance as the objective, FAST
	// successfully finds large designs that come close to our maximum
	// area and TDP constraints". Perf-optimal designs should sit much
	// closer to the budget than Perf/TDP-optimal ones.
	run := func(obj ObjectiveKind) *arch.Config {
		res, err := (&Study{
			Workloads: []string{"efficientnet-b0"},
			Objective: obj,
			Algorithm: search.AlgLCS,
			Trials:    80,
			Seed:      4,
		}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Best == nil {
			t.Fatal("no design")
		}
		return res.Best
	}
	pm := power.Default()
	b := power.DefaultBudget(pm)
	perf := pm.TDP(run(Perf)) / b.MaxTDPW
	eff := pm.TDP(run(PerfPerTDP)) / b.MaxTDPW
	if perf < eff {
		t.Errorf("perf-optimal TDP share %.2f should be >= perf/TDP-optimal %.2f", perf, eff)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		res, err := (&Study{
			Workloads: []string{"efficientnet-b0"},
			Objective: PerfPerTDP,
			Algorithm: search.AlgBayes,
			Trials:    25,
			Seed:      5,
		}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.BestValue
	}
	if run() != run() {
		t.Error("study not deterministic at fixed seed")
	}
}

func TestGeoMean(t *testing.T) {
	id := func(r *sim.Result) float64 { return r.QPS }
	if GeoMean(nil, id) != 0 {
		t.Error("empty geomean must be 0")
	}
	rs := []WorkloadResult{
		{Name: "a", Result: &sim.Result{QPS: 4}},
		{Name: "b", Result: &sim.Result{QPS: 16}},
	}
	if g := GeoMean(rs, id); g < 7.99 || g > 8.01 {
		t.Errorf("geomean = %f, want 8", g)
	}
	rs[1].Result.QPS = 0
	if GeoMean(rs, id) != 0 {
		t.Error("non-positive values must zero the geomean")
	}
}

func TestPlanCacheSharing(t *testing.T) {
	fast := sim.FASTOptions()
	fp := fast.Fingerprint()
	p1, err := planFor("efficientnet-b0", 128, fp, fast)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := planFor("efficientnet-b0", 128, fp, fast)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("same (workload, batch, fingerprint) must share one compiled plan")
	}
	base := sim.BaselineOptions()
	p3, err := planFor("efficientnet-b0", 128, base.Fingerprint(), base)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("different option fingerprints must compile distinct plans")
	}
	p4, err := planFor("efficientnet-b0", 64, fp, fast)
	if err != nil {
		t.Fatal(err)
	}
	if p4 == p1 {
		t.Error("different batches must compile distinct plans")
	}
	if _, err := planFor("no-such-model", 128, fp, fast); err == nil {
		t.Error("unknown workload must error")
	}
}

func TestPlanCacheConcurrent(t *testing.T) {
	// Many goroutines requesting the same fresh key must all receive the
	// single compiled plan (compile-once under -race).
	fast := sim.FASTOptions()
	fast.WholeTensorFusion = true // unique options → fresh cache entry
	fp := fast.Fingerprint()
	const workers = 8
	got := make([]*sim.Plan, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p, err := planFor("resnet50", 128, fp, fast)
			if err != nil {
				t.Error(err)
				return
			}
			got[w] = p
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if got[w] != got[0] {
			t.Fatalf("worker %d received a different plan", w)
		}
	}
}
