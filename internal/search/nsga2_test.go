package search

import (
	"testing"

	"fast/internal/arch"
)

// biobjective is a synthetic two-objective problem with a genuine
// conflict: v1 peaks when every coordinate is at its maximum, v2 when
// every coordinate is at its minimum, so the Pareto front spans the
// main diagonal of the space. The feasibility slab from quadratic is
// kept to exercise constraint handling.
func biobjective(idx [arch.NumParams]int) Evaluation {
	dims := arch.Space{}.Dims()
	if idx[0] == dims[0]-1 {
		return Evaluation{}
	}
	var up, down float64
	for d, card := range dims {
		x := float64(idx[d]) / float64(card-1)
		up += x
		down += 1 - x
	}
	vals := []float64{up / arch.NumParams, down / arch.NumParams}
	return Evaluation{Value: vals[0], Values: vals, Feasible: true}
}

// driveMulti pumps an optimizer through `trials` evaluations in batches
// of 16 and returns the full history.
func driveMulti(opt Optimizer, obj func([arch.NumParams]int) Evaluation, trials int) []Trial {
	var history []Trial
	for len(history) < trials {
		n := trials - len(history)
		if n > 16 {
			n = 16
		}
		asks := opt.Ask(n)
		batch := make([]Trial, len(asks))
		for i, idx := range asks {
			batch[i] = Trial{Index: idx, Evaluation: obj(idx)}
		}
		opt.Tell(batch)
		history = append(history, batch...)
	}
	return history
}

// TestNSGA2FindsSpreadFront: the front discovered on the conflicting
// objectives must contain genuine trade-offs — points strong on v1,
// points strong on v2, and a non-trivial interior.
func TestNSGA2FindsSpreadFront(t *testing.T) {
	history := driveMulti(newNSGA2(3, 400), biobjective, 400)
	a := NewParetoArchive(0)
	for _, tr := range history {
		a.Add(tr)
	}
	front := a.Front()
	if len(front) < 5 {
		t.Fatalf("front has %d points, want a spread (>= 5)", len(front))
	}
	var bestV1, bestV2 float64
	for _, tr := range front {
		if tr.Values[0] > bestV1 {
			bestV1 = tr.Values[0]
		}
		if tr.Values[1] > bestV2 {
			bestV2 = tr.Values[1]
		}
	}
	// Random uniform coordinates average 0.5 per objective; an evolved
	// front must push both extremes well past that.
	if bestV1 < 0.75 || bestV2 < 0.75 {
		t.Errorf("front extremes (%.2f, %.2f) barely beat uniform random (0.5)", bestV1, bestV2)
	}
	// And the extremes must be different points: a single dominant
	// solution would mean the objectives were not actually in conflict.
	if bestV1+bestV2 > 1.9 {
		t.Errorf("one point nearly maximizes both objectives (%.2f + %.2f); conflict lost", bestV1, bestV2)
	}
}

// TestNSGA2ScalarStillConverges: with a scalar objective NSGA-II
// degenerates to an elitist GA and must still beat the uniform-random
// expectation on the smooth quadratic.
func TestNSGA2ScalarStillConverges(t *testing.T) {
	res := run(AlgNSGA2, quadratic, 300, 7)
	if !res.Best.Feasible {
		t.Fatal("no feasible best")
	}
	if res.Best.Value < 99.0 {
		t.Errorf("best = %.3f, want > 99.0", res.Best.Value)
	}
}

// TestNSGA2TranscriptDeterminism: two instances fed the same transcript
// stay in lockstep even when ask and tell granularities disagree (the
// concurrent Runner may split batches arbitrarily around the population
// boundary).
func TestNSGA2TranscriptDeterminism(t *testing.T) {
	a := newNSGA2(11, 0)
	b := newNSGA2(11, 0)
	askA := func(n int) [][arch.NumParams]int { return a.Ask(n) }
	var pending []Trial
	for round := 0; round < 30; round++ {
		n := 3 + round%7 // deliberately misaligned with the population
		pa := askA(n)
		pb := b.Ask(n)
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("round %d proposal %d differs: %v vs %v", round, i, pa[i], pb[i])
			}
			pending = append(pending, Trial{Index: pa[i], Evaluation: biobjective(pa[i])})
		}
		// Tell in a different chunking than asked, but in ask order.
		for len(pending) >= 5 {
			a.Tell(pending[:5])
			b.Tell(pending[:5])
			pending = pending[5:]
		}
	}
}
