package search

import (
	"math/rand"
	"strings"
	"testing"

	"fast/internal/arch"
)

// snapObjective is a cheap deterministic stand-in objective with a
// feasibility boundary, shared by the snapshot tests.
func snapObjective(idx [arch.NumParams]int) Evaluation {
	sum := 0
	for _, v := range idx {
		sum += v
	}
	if sum%5 == 0 {
		return Evaluation{} // infeasible band, exercises safe-search paths
	}
	v := float64(sum) + 0.25*float64(idx[0]-idx[3])
	return Evaluation{Value: v, Values: []float64{v, -float64(idx[1])}, Feasible: true}
}

// driveBatches pumps opt through ask/tell rounds of the given sizes,
// returning every told trial in order. A non-nil rec receives every
// told batch through Snapshot.Append, the way a study's checkpoint hook
// records it.
func driveBatches(t *testing.T, opt Optimizer, sizes []int, rec *Snapshot) []Trial {
	t.Helper()
	var history []Trial
	for _, n := range sizes {
		asks := opt.Ask(n)
		if len(asks) != n {
			t.Fatalf("Ask(%d) returned %d proposals", n, len(asks))
		}
		batch := make([]Trial, n)
		for i, idx := range asks {
			batch[i] = Trial{Index: idx, Evaluation: snapObjective(idx)}
		}
		opt.Tell(batch)
		if rec != nil {
			rec.Append(batch)
		}
		history = append(history, batch...)
	}
	return history
}

// TestSnapshotRestoreIdentity is the checkpoint round-trip property
// test: for every algorithm, at randomized mid-study points with
// randomized batch shapes, a snapshot appended batch by batch while
// driving must Restore to an optimizer whose future proposals are
// bit-identical to the original's — i.e. restoring is the identity on
// optimizer state.
func TestSnapshotRestoreIdentity(t *testing.T) {
	algs := []Algorithm{AlgRandom, AlgLCS, AlgBayes, AlgNSGA2}
	rng := rand.New(rand.NewSource(77))
	for _, alg := range algs {
		for trial := 0; trial < 5; trial++ {
			seed := rng.Int63n(1000)
			budget := 40 + rng.Intn(100)
			// Random batch-size schedule up to a random mid-study cut.
			var sizes []int
			total := 0
			cut := 1 + rng.Intn(60)
			for total < cut {
				n := 1 + rng.Intn(16)
				if total+n > cut {
					n = cut - total
				}
				sizes = append(sizes, n)
				total += n
			}

			orig := New(alg, seed, budget)
			snap := Snapshot{Algorithm: alg, Seed: seed, Budget: budget}
			driveBatches(t, orig, sizes, &snap)
			if err := snap.Validate(); err != nil {
				t.Fatalf("%s: snapshot invalid: %v", alg, err)
			}
			if len(snap.Trials) != total {
				t.Fatalf("%s: snapshot holds %d trials, drove %d", alg, len(snap.Trials), total)
			}
			restored, err := Restore(snap)
			if err != nil {
				t.Fatalf("%s: Restore: %v", alg, err)
			}

			// Both must now produce identical futures.
			futureSizes := []int{7, 16, 3, 16}
			a := driveBatches(t, orig, futureSizes, nil)
			b := driveBatches(t, restored, futureSizes, nil)
			for i := range a {
				if !a[i].Equal(b[i]) {
					t.Fatalf("%s seed=%d cut=%d: future trial %d diverged: %v vs %v",
						alg, seed, cut, i, a[i], b[i])
				}
			}
		}
	}
}

// TestRestoreRejectsMismatch verifies the replay verification: a
// snapshot replayed under the wrong seed must be rejected, not silently
// fork the search.
func TestRestoreRejectsMismatch(t *testing.T) {
	snap := Snapshot{Algorithm: AlgLCS, Seed: 5, Budget: 64}
	driveBatches(t, New(AlgLCS, 5, 64), []int{16}, &snap)

	bad := snap
	bad.Seed = 6
	if _, err := Restore(bad); err == nil {
		t.Fatal("Restore accepted a snapshot under the wrong seed")
	}

	// A header naming no optimizer family is refused by name, not
	// replayed into a mismatch.
	unknown := snap
	unknown.Algorithm = "gradient-descent"
	if _, err := Restore(unknown); err == nil || !strings.Contains(err.Error(), `"gradient-descent"`) {
		t.Fatalf("Restore of an unknown algorithm: err = %v, want one naming it", err)
	}

	// Corrupt trial payloads must fail Validate or replay.
	short := snap
	short.Trials = short.Trials[:len(short.Trials)-1]
	if _, err := Restore(short); err == nil {
		t.Fatal("Restore accepted a snapshot with truncated trials")
	}
}

// TestRestoredSnapshotChains verifies a restored optimizer keeps
// extending its snapshot and restores again (checkpoint chains across
// many restarts).
func TestRestoredSnapshotChains(t *testing.T) {
	snap := Snapshot{Algorithm: AlgBayes, Seed: 11, Budget: 80}
	driveBatches(t, New(AlgBayes, 11, 80), []int{16, 16}, &snap)
	r1, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	driveBatches(t, r1, []int{16}, &snap)
	r2, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	// And r2's future matches a never-restored reference.
	ref := New(AlgBayes, 11, 80)
	driveBatches(t, ref, []int{16, 16, 16}, nil)
	a := driveBatches(t, ref, []int{16}, nil)
	b := driveBatches(t, r2, []int{16}, nil)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("trial %d diverged after chained restore", i)
		}
	}
}
