package core

import (
	"context"
	"slices"
	"testing"

	"fast/internal/power"
	"fast/internal/search"
	"fast/internal/sim"
)

// TestMultiObjectiveFrontParallelismInvariance is the acceptance
// criterion for Pareto studies: same seed ⇒ same front, at any
// parallelism.
func TestMultiObjectiveFrontParallelismInvariance(t *testing.T) {
	run := func(par int) *StudyResult {
		res, err := (&Study{
			Workloads:  []string{"efficientnet-b0"},
			Objectives: []ObjectiveKind{Perf, TDP},
			Trials:     96,
			Seed:       17,
			// A tight cap exercises crowding-distance pruning, which must
			// be as parallelism-invariant as the archive itself (and keeps
			// the per-point ILP re-simulations cheap).
			FrontCap: 5,
		}).Run(context.Background(), WithParallelism(par))
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		return res
	}
	serial, parallel := run(1), run(8)
	for i := range serial.Search.History {
		if !serial.Search.History[i].Equal(parallel.Search.History[i]) {
			t.Fatalf("trial %d differs between parallelism 1 and 8", i)
		}
	}
	fs, fp := serial.Front(), parallel.Front()
	if len(fs) == 0 {
		t.Fatal("empty front")
	}
	if len(fs) != len(fp) {
		t.Fatalf("front sizes differ: %d vs %d", len(fs), len(fp))
	}
	for i := range fs {
		if fs[i].Index != fp[i].Index {
			t.Fatalf("front point %d differs: %v vs %v", i, fs[i].Index, fp[i].Index)
		}
		for k := range fs[i].Values {
			if fs[i].Values[k] != fp[i].Values[k] {
				t.Fatalf("front point %d value %d differs", i, k)
			}
		}
	}
}

// TestSingleObjectiveStudyMatchesScalar pins the two user-facing
// spellings of a one-objective study to one trajectory, for every scalar
// algorithm: a 1-element Objectives study and the equivalent scalar
// study differ only in that the scalar one's trials carry no Values.
func TestSingleObjectiveStudyMatchesScalar(t *testing.T) {
	for _, alg := range []search.Algorithm{search.AlgRandom, search.AlgLCS, search.AlgBayes} {
		scalar, err := (&Study{
			Workloads: []string{"efficientnet-b0"},
			Objective: PerfPerTDP,
			Algorithm: alg,
			Trials:    48,
			Seed:      5,
		}).Run(context.Background())
		if err != nil {
			t.Fatalf("%s scalar: %v", alg, err)
		}
		multi, err := (&Study{
			Workloads:  []string{"efficientnet-b0"},
			Objectives: []ObjectiveKind{PerfPerTDP},
			Algorithm:  alg,
			Trials:     48,
			Seed:       5,
		}).Run(context.Background())
		if err != nil {
			t.Fatalf("%s multi: %v", alg, err)
		}
		if len(scalar.Search.History) != len(multi.Search.History) {
			t.Fatalf("%s: history lengths differ: %d vs %d", alg,
				len(scalar.Search.History), len(multi.Search.History))
		}
		for i := range scalar.Search.History {
			a, b := scalar.Search.History[i], multi.Search.History[i]
			if a.Index != b.Index || a.Value != b.Value || a.Feasible != b.Feasible {
				t.Fatalf("%s: trial %d diverges: %+v vs %+v", alg, i, a, b)
			}
			if a.Values != nil {
				t.Fatalf("%s: scalar trial %d carries Values %v; checkpoints of scalar studies hold none", alg, i, a.Values)
			}
		}
		if scalar.BestValue != multi.BestValue {
			t.Errorf("%s: best value differs: %v vs %v", alg, scalar.BestValue, multi.BestValue)
		}
		if scalar.Best != nil && multi.Best != nil && *scalar.Best != *multi.Best {
			// Name differs by construction; compare the datapath.
			a, b := *scalar.Best, *multi.Best
			a.Name, b.Name = "", ""
			if a != b {
				t.Errorf("%s: best design differs", alg)
			}
		}
	}
}

// TestDuplicateObjectivesRejected: a repeated objective would
// double-weight itself in dominance and collapse in keyed outputs, so
// the study refuses it up front.
func TestDuplicateObjectivesRejected(t *testing.T) {
	_, err := (&Study{
		Workloads:  []string{"efficientnet-b0"},
		Objectives: []ObjectiveKind{Perf, TDP, Perf},
		Trials:     5,
	}).Run(context.Background())
	if err == nil {
		t.Fatal("duplicate objectives must error")
	}
}

// TestParseObjectives: the one objective-list parser trims names, keeps
// their order, and refuses unknown and repeated ones; Raw undoes the
// search's negation of exactly the minimized objectives.
func TestParseObjectives(t *testing.T) {
	got, err := ParseObjectives([]string{"perf", " tdp", "area ", "perf/tdp"})
	if err != nil || !slices.Equal(got, []ObjectiveKind{Perf, TDP, Area, PerfPerTDP}) {
		t.Errorf("ParseObjectives = %v, %v", got, err)
	}
	if got, err := ParseObjectives(nil); got != nil || err != nil {
		t.Errorf("ParseObjectives(nil) = %v, %v, want nil, nil", got, err)
	}
	for _, names := range [][]string{{"perf", "bogus"}, {"perf", "perf"}, {"perf-per-tdp", "perf/tdp"}} {
		if _, err := ParseObjectives(names); err == nil {
			t.Errorf("ParseObjectives(%q) accepted", names)
		}
	}
	for o, want := range map[ObjectiveKind]float64{Perf: 2, PerfPerTDP: 2, TDP: -2, Area: -2} {
		if got := o.Raw(2); got != want {
			t.Errorf("%s.Raw(2) = %v, want %v", o, got, want)
		}
	}
}

// TestMultiObjectiveSharesEvaluations is the cost acceptance criterion:
// a 3-objective study performs at most 1.1× the plan evaluations of a
// 1-objective study with the same trial budget. AlgRandom proposes the
// identical design sequence regardless of objective count, so the two
// runs differ only in how each simulation is scored.
func TestMultiObjectiveSharesEvaluations(t *testing.T) {
	run := func(objs []ObjectiveKind) int64 {
		before := sim.EvalCount()
		_, err := (&Study{
			Workloads:  []string{"efficientnet-b0"},
			Objectives: objs,
			Algorithm:  search.AlgRandom,
			Trials:     400,
			Seed:       23,
		}).Run(context.Background(), WithParallelism(2))
		if err != nil {
			t.Fatal(err)
		}
		return sim.EvalCount() - before
	}
	one := run([]ObjectiveKind{PerfPerTDP})
	three := run([]ObjectiveKind{PerfPerTDP, TDP, Area})
	if one == 0 {
		t.Fatal("counter recorded no evaluations")
	}
	if float64(three) > 1.1*float64(one) {
		t.Errorf("3-objective study cost %d evaluations vs %d for 1 objective (> 1.1×)", three, one)
	}
}

// TestFrontShape checks the front's semantic contract: mutually
// non-dominated points, budget compliance, per-point workload results,
// and raw-unit values (TDP/area positive, not the negated search form).
func TestFrontShape(t *testing.T) {
	pm := power.Default()
	budget := power.DefaultBudget(pm)
	res, err := (&Study{
		Workloads:  []string{"efficientnet-b0"},
		Objectives: []ObjectiveKind{PerfPerTDP, TDP, Area},
		Trials:     128,
		Seed:       4,
		FrontCap:   6,
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	front := res.Front()
	if len(front) == 0 {
		t.Fatal("empty front")
	}
	if res.Best == nil {
		t.Fatal("multi-objective study must still report a primary-objective best")
	}
	for i, p := range front {
		if len(p.Values) != 3 {
			t.Fatalf("point %d has %d values", i, len(p.Values))
		}
		if p.Values[1] <= 0 || p.Values[2] <= 0 {
			t.Errorf("point %d: TDP/area must be raw positive units: %v", i, p.Values)
		}
		if !budget.Within(pm, p.Design) {
			t.Errorf("point %d violates the budget", i)
		}
		if len(p.PerWorkload) != 1 || p.PerWorkload[0].Result.ScheduleFailed {
			t.Errorf("point %d lacks a final workload re-simulation", i)
		}
		// Mutual non-domination in maximize orientation.
		for j, q := range front {
			if i == j {
				continue
			}
			a := []float64{p.Values[0], -p.Values[1], -p.Values[2]}
			b := []float64{q.Values[0], -q.Values[1], -q.Values[2]}
			if search.Dominates(a, b) && front[j].Index == q.Index {
				// q is dominated by p — the front is not a front.
				t.Errorf("front point %d dominates front point %d", i, j)
			}
		}
	}
	// Presentation order: descending primary objective.
	for i := 1; i < len(front); i++ {
		if front[i].Values[0] > front[i-1].Values[0] {
			t.Errorf("front not sorted by primary objective at %d", i)
		}
	}
}
