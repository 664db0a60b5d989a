package fusion

// The Assignment provenance plumbing (Gap, Nodes) of the exact solve
// behind the fusion pass. Its differential against the frozen
// dense-tableau reference runs on the captured problems in
// internal/ilp (fusiondiff_test.go).

import (
	"math/rand"
	"testing"
	"time"
)

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
// also when it reuses an Assignment an earlier instance of another size
// filled, and the memoized slices are copied, not retained.
func TestResolvePlannedRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var asn Assignment
	for trial := 0; trial < 40; trial++ {
		regions, usable := randomRegions(rng, 1+rng.Intn(24))
		capacity := rng.Int63n(1 << 23)
		opts := Options{GreedyOnly: trial%2 == 0, Deadline: 10 * time.Second}
		want := optimizePlanned(regions, usable, capacity, opts)
		SolvePlanned(&asn, regions, usable, capacity, opts)
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
