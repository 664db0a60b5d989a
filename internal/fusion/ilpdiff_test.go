package fusion

// Differential coverage for the sparse exact solve behind the fusion
// pass: the sparse revised-simplex ILP against the frozen dense-tableau
// reference (optimizeDense) over randomized fusion instances, plus
// the Assignment provenance plumbing (Gap, Nodes).

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestSparseILPNeverWorseThanDense solves randomized fusion instances
// with both exact cores. The sparse solve must prove optimality and
// never land above the dense solve's total (the dense tableau's
// absolute tolerances can themselves lose exact optimality on
// fusion-scaled coefficients, so the comparison is one-sided), and on
// the instances where both report the identical assignment the whole
// Solution must match bit for bit.
func TestSparseILPNeverWorseThanDense(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	identical := 0
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(14)
		regions, usable := randomRegions(rng, n)
		capacity := rng.Int63n(1 << 24)
		sparse := optimizePlanned(regions, usable, capacity, Options{Deadline: time.Minute})
		dense := optimizeDense(regions, usable, capacity, Options{Deadline: time.Minute})
		if sparse.Method == "disabled" || dense.Method == "disabled" {
			continue
		}
		if sparse.Method == "ilp-optimal" && dense.Method == "ilp-optimal" {
			if sparse.Total > dense.Total+1e-12*(1+math.Abs(dense.Total)) {
				t.Fatalf("trial %d: sparse total %.15g worse than dense %.15g", trial, sparse.Total, dense.Total)
			}
		}
		// An empty placement still occupies the scheduler's base working
		// tiles, so the peak floor is max BaseGM even above capacity.
		var basePeak int64
		for _, r := range regions {
			if r.BaseGM > basePeak {
				basePeak = r.BaseGM
			}
		}
		if limit := max(capacity, basePeak); sparse.GMUsedPeak > limit {
			t.Fatalf("trial %d: sparse peak %d exceeds %d", trial, sparse.GMUsedPeak, limit)
		}
		same := true
		for i := range regions {
			if sparse.PinWeight[i] != dense.PinWeight[i] || sparse.EdgeOnChip[i] != dense.EdgeOnChip[i] {
				same = false
				break
			}
		}
		if same {
			identical++
			if sparse.Total != dense.Total || sparse.GMUsedPeak != dense.GMUsedPeak {
				t.Fatalf("trial %d: identical assignment, different roll-up: %.15g vs %.15g",
					trial, sparse.Total, dense.Total)
			}
		}
	}
	if identical == 0 {
		t.Error("solvers never agreed on an assignment — differential has no teeth")
	}
}

// TestILPGapAndNodesPlumbed: an expired deadline must surface the
// greedy-seeded incumbent as "ilp-incumbent" with a reported gap, and
// node counts must flow through; a proven solve reports gap zero.
func TestILPGapAndNodesPlumbed(t *testing.T) {
	rs := chain(6)
	capacity := int64(5 << 20)

	proven := optimize(rs, capacity, Options{Deadline: time.Minute})
	if proven.Method != "ilp-optimal" {
		t.Fatalf("method = %s, want ilp-optimal", proven.Method)
	}
	if proven.Gap != 0 {
		t.Errorf("proven solve gap = %g, want 0", proven.Gap)
	}
	if proven.Nodes < 1 {
		t.Errorf("proven solve nodes = %d, want ≥ 1", proven.Nodes)
	}

	rushed := optimize(rs, capacity, Options{Deadline: time.Nanosecond})
	switch rushed.Method {
	case "ilp-incumbent":
		if !(rushed.Gap > 0) {
			t.Errorf("deadline-hit gap = %g, want > 0 (or +Inf)", rushed.Gap)
		}
		// The incumbent is greedy-seeded: never worse than pure greedy.
		greedy := optimize(rs, capacity, Options{GreedyOnly: true})
		if rushed.Total > greedy.Total+1e-12 {
			t.Errorf("incumbent total %.15g worse than greedy %.15g", rushed.Total, greedy.Total)
		}
	case "ilp-optimal":
		// A nanosecond can, in principle, still be enough on this tiny
		// instance; then the gap must be zero.
		if rushed.Gap != 0 {
			t.Errorf("optimal-after-deadline gap = %g", rushed.Gap)
		}
	default:
		t.Fatalf("method = %s", rushed.Method)
	}

	g := optimize(rs, capacity, Options{GreedyOnly: true})
	if g.Gap != 0 || g.Nodes != 0 {
		t.Errorf("greedy solution carries ILP provenance: gap=%g nodes=%d", g.Gap, g.Nodes)
	}
}

// TestResolvePlannedRoundTrips pins the SolvePlanned/ResolvePlanned
// contract with the Assignment type: a second solve of the same
// instance resolves to the same Solution (an Assignment is memoizable),
// and the memoized slices are copied, not retained.
func TestResolvePlannedRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		regions, usable := randomRegions(rng, 1+rng.Intn(24))
		capacity := rng.Int63n(1 << 23)
		opts := Options{GreedyOnly: trial%2 == 0, Deadline: 10 * time.Second}
		want := optimizePlanned(regions, usable, capacity, opts)
		asn := SolvePlanned(regions, usable, capacity, opts)
		var got Solution
		ResolvePlanned(&got, regions, capacity, asn)
		if got.Total != want.Total || got.GMUsedPeak != want.GMUsedPeak || got.Method != want.Method {
			t.Fatalf("trial %d: resolve mismatch: %+v vs %+v", trial, got, want)
		}
		for i := range regions {
			if got.PinWeight[i] != want.PinWeight[i] || got.EdgeOnChip[i] != want.EdgeOnChip[i] {
				t.Fatalf("trial %d: assignment mismatch at region %d", trial, i)
			}
		}
		// Mutating the resolved solution must not corrupt the assignment.
		if len(got.PinWeight) > 0 {
			got.PinWeight[0] = !got.PinWeight[0]
			if got.PinWeight[0] == asn.Pin[0] {
				t.Fatal("ResolvePlanned aliased the assignment slices")
			}
			got.PinWeight[0] = !got.PinWeight[0]
		}
	}
}
