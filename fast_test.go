package fast

import (
	"context"
	"testing"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	// The README quickstart, as a test: simulate B0 on TPU-v3 and
	// FAST-Large, compare Perf/TDP.
	tpu := TPUv3()
	g, err := BuildModel("efficientnet-b0", tpu.NativeBatch)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Simulate(g, tpu, BaselineOptions())
	if err != nil {
		t.Fatal(err)
	}
	fl := FASTLarge()
	g2, err := BuildModel("efficientnet-b0", fl.NativeBatch)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Simulate(g2, fl, FASTOptions())
	if err != nil {
		t.Fatal(err)
	}
	if fast.PerfPerTDP <= base.PerfPerTDP {
		t.Errorf("FAST-Large Perf/TDP %.3g should beat TPU-v3 %.3g on EfficientNet",
			fast.PerfPerTDP, base.PerfPerTDP)
	}
}

func TestFacadeNamesAndDesigns(t *testing.T) {
	if len(ModelNames()) < 10 {
		t.Error("model registry too small")
	}
	if len(FullSuite()) != 13 || len(MultiWorkloadSuite()) != 5 {
		t.Error("suite sizes wrong")
	}
	for _, n := range []string{"tpu-v3", "fast-large", "fast-small"} {
		if DesignByName(n) == nil {
			t.Errorf("missing design %s", n)
		}
	}
	if DesignByName("bogus") != nil {
		t.Error("bogus design resolved")
	}
	if DieShrunkTPUv3().Name == TPUv3().Name {
		t.Error("die-shrunk baseline must be distinguishable")
	}
}

func TestFacadeStudy(t *testing.T) {
	res, err := (&Study{
		Workloads: []string{"efficientnet-b0"},
		Objective: ObjectivePerfPerTDP,
		Algorithm: AlgorithmRandom,
		Trials:    15,
		Seed:      1,
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no design found in 15 random trials")
	}
	wr, err := EvaluateDesign(res.Best, []string{"efficientnet-b0"}, FASTOptions())
	if err != nil {
		t.Fatal(err)
	}
	if GeoMean(wr, func(r *SimResult) float64 { return r.QPS }) <= 0 {
		t.Error("geomean must be positive")
	}
}

func TestFacadeStudyOptions(t *testing.T) {
	// The redesigned Run(ctx, ...Option) surface: parallelism and the
	// transcript hook compose, and parallelism never changes the outcome.
	run := func(par int) (*StudyResult, int) {
		trials := 0
		res, err := (&Study{
			Workloads: []string{"efficientnet-b0"},
			Objective: ObjectivePerfPerTDP,
			Algorithm: AlgorithmLCS,
			Trials:    24,
			Seed:      4,
		}).Run(context.Background(),
			WithParallelism(par),
			WithTranscript(func(batch []Trial) { trials += len(batch) }))
		if err != nil {
			t.Fatal(err)
		}
		return res, trials
	}
	serial, n1 := run(1)
	parallel, n4 := run(4)
	if n1 != 24 || n4 != 24 {
		t.Errorf("transcript hook saw %d / %d trials, want 24", n1, n4)
	}
	if serial.BestValue != parallel.BestValue {
		t.Errorf("parallelism changed the result: %v vs %v", serial.BestValue, parallel.BestValue)
	}
}

func TestFacadeOptimizerProtocol(t *testing.T) {
	// NewOptimizer exposes the raw ask/tell loop for custom drivers.
	opt := NewOptimizer(AlgorithmBayesian, 8, 32)
	for round := 0; round < 4; round++ {
		asks := opt.Ask(8)
		if len(asks) != 8 {
			t.Fatalf("Ask(8) returned %d proposals", len(asks))
		}
		trials := make([]Trial, len(asks))
		for i, idx := range asks {
			trials[i] = Trial{Index: idx}
			trials[i].Value, trials[i].Feasible = 1.0, true
		}
		opt.Tell(trials)
	}
}

func TestFacadeBudgetAndROI(t *testing.T) {
	b := DefaultBudget()
	pm := DefaultPowerModel()
	if !b.Within(pm, FASTLarge()) {
		t.Error("FAST-Large must fit the default budget")
	}
	p := DefaultROI()
	if p.BreakEvenVolume(3.9) > 3000 || p.BreakEvenVolume(3.9) < 1500 {
		t.Errorf("break-even volume = %.0f, want ~2.2k", p.BreakEvenVolume(3.9))
	}
}
