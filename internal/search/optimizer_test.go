package search

import (
	"testing"

	"fast/internal/arch"
)

// TestBatchAskContract checks the Ask(n) side of the protocol: exact
// counts, in-domain proposals, and progress under batched tells.
func TestBatchAskContract(t *testing.T) {
	dims := arch.Space{}.Dims()
	for _, alg := range []Algorithm{AlgRandom, AlgLCS, AlgBayes, AlgNSGA2} {
		opt := New(alg, 3, 128)
		seen := 0
		for round := 0; round < 8; round++ {
			asks := opt.Ask(16)
			if len(asks) != 16 {
				t.Fatalf("%s: Ask(16) returned %d proposals", alg, len(asks))
			}
			trials := make([]Trial, len(asks))
			for i, idx := range asks {
				for d, card := range dims {
					if idx[d] < 0 || idx[d] >= card {
						t.Fatalf("%s: proposal %d out of domain for param %d: %d", alg, i, d, idx[d])
					}
				}
				trials[i] = Trial{Index: idx, Evaluation: quadratic(idx)}
			}
			opt.Tell(trials)
			seen += len(trials)
		}
		if seen != 128 {
			t.Fatalf("%s: told %d trials", alg, seen)
		}
	}
}

// TestBatchedDeterminism: two optimizers with the same seed fed the same
// transcript propose identical batches.
func TestBatchedDeterminism(t *testing.T) {
	for _, alg := range []Algorithm{AlgRandom, AlgLCS, AlgBayes, AlgNSGA2} {
		a := New(alg, 9, 96)
		b := New(alg, 9, 96)
		for round := 0; round < 6; round++ {
			pa := a.Ask(16)
			pb := b.Ask(16)
			for i := range pa {
				if pa[i] != pb[i] {
					t.Fatalf("%s: round %d proposal %d differs: %v vs %v", alg, round, i, pa[i], pb[i])
				}
			}
			trials := make([]Trial, len(pa))
			for i, idx := range pa {
				trials[i] = Trial{Index: idx, Evaluation: quadratic(idx)}
			}
			a.Tell(trials)
			b.Tell(trials)
		}
	}
}

// TestAskZero: an empty ask is legal and returns no proposals.
func TestAskZero(t *testing.T) {
	for _, alg := range []Algorithm{AlgRandom, AlgLCS, AlgBayes, AlgNSGA2} {
		if got := New(alg, 1, 10).Ask(0); len(got) != 0 {
			t.Errorf("%s: Ask(0) returned %d proposals", alg, len(got))
		}
	}
}

// TestBatchedSearchStillConverges: a 16-wide synchronous drive of the
// adaptive families must still beat uniform random's expected best on
// the smooth objective (the batch engine shouldn't cost convergence).
func TestBatchedSearchStillConverges(t *testing.T) {
	drive := func(alg Algorithm) Result {
		opt := New(alg, 5, 256)
		var res Result
		for told := 0; told < 256; told += 16 {
			asks := opt.Ask(16)
			trials := make([]Trial, len(asks))
			for i, idx := range asks {
				trials[i] = Trial{Index: idx, Evaluation: quadratic(idx)}
			}
			opt.Tell(trials)
			for _, tr := range trials {
				res.Observe(tr)
			}
		}
		return res
	}
	for _, alg := range []Algorithm{AlgLCS, AlgBayes} {
		res := drive(alg)
		if !res.Best.Feasible {
			t.Fatalf("%s: no feasible best", alg)
		}
		if res.Best.Value < 99.0 {
			t.Errorf("%s: batched best = %.3f, want > 99.0", alg, res.Best.Value)
		}
	}
}
