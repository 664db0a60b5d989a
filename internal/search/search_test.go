package search

import (
	"math"
	"math/rand"
	"testing"

	"fast/internal/arch"
)

// quadratic is a smooth synthetic objective with a known optimum at the
// center of every dimension, plus a feasibility region excluding a slab.
func quadratic(idx [arch.NumParams]int) Evaluation {
	dims := arch.Space{}.Dims()
	v := 0.0
	for d, card := range dims {
		x := float64(idx[d]) / float64(card-1)
		v -= (x - 0.5) * (x - 0.5)
	}
	// Infeasible slab: first coordinate at its maximum.
	if idx[0] == dims[0]-1 {
		return Evaluation{}
	}
	return Evaluation{Value: 100 + v, Feasible: true}
}

// run pumps a fresh optimizer through `trials` serial ask-1/tell-1
// rounds — the smallest driver of the Optimizer protocol.
func run(alg Algorithm, obj func([arch.NumParams]int) Evaluation, trials int, seed int64) Result {
	opt := New(alg, seed, trials)
	var res Result
	for i := 0; i < trials; i++ {
		idx := opt.Ask(1)[0]
		t := Trial{Index: idx, Evaluation: obj(idx)}
		opt.Tell([]Trial{t})
		res.Observe(t)
	}
	return res
}

func TestRandomFindsFeasible(t *testing.T) {
	res := run(AlgRandom, quadratic, 200, 1)
	if !res.Best.Feasible {
		t.Fatal("random found no feasible point")
	}
	if len(res.History) != 200 {
		t.Errorf("history = %d", len(res.History))
	}
	if res.FeasibleRate() < 0.5 {
		t.Errorf("feasible rate = %.2f; the slab excludes only 1/9 of space", res.FeasibleRate())
	}
}

func TestOptimizersBeatTheMeanAndAreDeterministic(t *testing.T) {
	for _, alg := range []Algorithm{AlgRandom, AlgLCS, AlgBayes} {
		a := run(alg, quadratic, 300, 7)
		b := run(alg, quadratic, 300, 7)
		if !a.Best.Feasible {
			t.Fatalf("%s: no feasible best", alg)
		}
		if a.Best.Value != b.Best.Value || a.Best.Index != b.Best.Index {
			t.Errorf("%s: not deterministic", alg)
		}
		// Max possible = 100; a uniform point scores ≈98.7 in expectation,
		// so any working optimizer must land well above that.
		if a.Best.Value < 99.0 {
			t.Errorf("%s: best = %.3f, want > 99.0", alg, a.Best.Value)
		}
	}
}

func TestGuidedSearchBeatsRandom(t *testing.T) {
	// Figure 11's premise: at matched budget, guided optimizers converge
	// at least as well as random. Compare mean best over seeds on the
	// smooth objective.
	mean := func(alg Algorithm) float64 {
		var s float64
		for seed := int64(0); seed < 5; seed++ {
			s += run(alg, quadratic, 250, seed).Best.Value
		}
		return s / 5
	}
	r := mean(AlgRandom)
	if l := mean(AlgLCS); l < r-0.05 {
		t.Errorf("LCS mean %.4f below random %.4f", l, r)
	}
	if b := mean(AlgBayes); b < r-0.05 {
		t.Errorf("Bayes mean %.4f below random %.4f", b, r)
	}
}

func TestBestSoFarMonotone(t *testing.T) {
	res := run(AlgLCS, quadratic, 150, 3)
	curve := res.BestSoFar()
	prev := math.Inf(-1)
	seenFeasible := false
	for i, v := range curve {
		if math.IsNaN(v) {
			if seenFeasible {
				t.Fatalf("NaN after feasible at %d", i)
			}
			continue
		}
		seenFeasible = true
		if v < prev {
			t.Fatalf("best-so-far decreased at %d: %f < %f", i, v, prev)
		}
		prev = v
	}
	if !seenFeasible {
		t.Fatal("no feasible trial in curve")
	}
	if curve[len(curve)-1] != res.Best.Value {
		t.Error("curve end != best value")
	}
}

func TestAllInfeasible(t *testing.T) {
	never := func([arch.NumParams]int) Evaluation { return Evaluation{} }
	for _, alg := range []Algorithm{AlgRandom, AlgLCS, AlgBayes} {
		res := run(alg, never, 50, 1)
		if res.Best.Feasible {
			t.Errorf("%s: claims feasible best on infeasible objective", alg)
		}
		if len(res.History) != 50 {
			t.Errorf("%s: history = %d", alg, len(res.History))
		}
		if res.FeasibleRate() != 0 {
			t.Errorf("%s: feasible rate must be 0", alg)
		}
	}
}

func TestTrialIndicesInDomain(t *testing.T) {
	dims := arch.Space{}.Dims()
	check := func(alg Algorithm) {
		res := run(alg, quadratic, 200, 9)
		for _, tr := range res.History {
			for d, card := range dims {
				if tr.Index[d] < 0 || tr.Index[d] >= card {
					t.Fatalf("%s: index %d out of domain for param %d", alg, tr.Index[d], d)
				}
			}
		}
	}
	for _, alg := range []Algorithm{AlgRandom, AlgLCS, AlgBayes} {
		check(alg)
	}
}

func TestZeroTrials(t *testing.T) {
	for _, alg := range []Algorithm{AlgRandom, AlgLCS, AlgBayes} {
		res := run(alg, quadratic, 0, 1)
		if len(res.History) != 0 || res.Best.Feasible {
			t.Errorf("%s: zero-trial run misbehaved", alg)
		}
	}
}

func TestMutateAlwaysChanges(t *testing.T) {
	res := run(AlgBayes, quadratic, 40, 5)
	_ = res
	// mutate is exercised through Bayesian; direct property:
	r := rand.New(rand.NewSource(11))
	var base [arch.NumParams]int
	for i := 0; i < 100; i++ {
		m := mutate(r, base, 0.0)
		if m == base {
			t.Fatal("mutate(p=0) must still change one coordinate")
		}
	}
}
