package fusion

import (
	"math"
	"math/rand"
	"testing"
)

// memBoundRegion builds a memory-bound region: TMax far above TMin with
// savings split across weight pinning and the input edge.
func memBoundRegion(producer int, scale float64) RegionCost {
	return RegionCost{
		TMin: 1 * scale, TMax: 4 * scale,
		TWeight: 1 * scale, DWeight: 2 << 20, PinnableWeights: true,
		EdgeProducer: producer, EdgeBytes: 1 << 20,
		TEdgeRead: 1 * scale, TEdgeWrite: 1 * scale,
	}
}

func chain(n int) []RegionCost {
	rs := make([]RegionCost, n)
	for i := range rs {
		rs[i] = memBoundRegion(i-1, 1)
	}
	rs[0].EdgeProducer = -1
	rs[0].EdgeBytes = 0
	rs[0].TEdgeRead = 0
	return rs
}

// optimizePlanned composes the package's two entry points the way
// sim's fusion stage does: solve the placement, resolve the Solution.
func optimizePlanned(regions []RegionCost, usable []bool, capacity int64, opts Options) Solution {
	var asn Assignment
	SolvePlanned(&asn, regions, usable, capacity, opts)
	var sol Solution
	ResolvePlanned(&sol, regions, capacity, asn)
	return sol
}

// optimize is optimizePlanned with the window analysis done on the spot.
func optimize(regions []RegionCost, capacity int64, opts Options) Solution {
	producers := make([]int, len(regions))
	for i := range regions {
		producers[i] = regions[i].EdgeProducer
	}
	return optimizePlanned(regions, UsableEdges(producers), capacity, opts)
}

func TestDisabled(t *testing.T) {
	rs := chain(4)
	sol := optimize(rs, 1<<30, Options{Disable: true})
	if sol.Method != "disabled" {
		t.Errorf("method = %s", sol.Method)
	}
	if sol.Total != 16 {
		t.Errorf("disabled total = %f, want ΣTMax = 16", sol.Total)
	}
}

func TestAmpleCapacityReachesFloor(t *testing.T) {
	rs := chain(4)
	sol := optimize(rs, 1<<40, Options{})
	for i := range rs {
		if !sol.PinWeight[i] {
			t.Errorf("region %d weights should be pinned", i)
		}
	}
	// Interior regions save weight+read+write = 3 → reach TMin = 1.
	if sol.Times[1] != 1 || sol.Times[2] != 1 {
		t.Errorf("interior times = %v, want TMin", sol.Times)
	}
	// Region 0 has no input edge: saves weight + write of its output
	// (edge of region 1) = 2 → time 2.
	if sol.Times[0] != 2 {
		t.Errorf("region 0 time = %f, want 2", sol.Times[0])
	}
	if sol.Total >= 16 {
		t.Error("fusion must improve on the unfused total")
	}
}

func TestZeroCapacityChangesNothing(t *testing.T) {
	rs := chain(4)
	sol := optimize(rs, 0, Options{})
	if sol.Total != 16 {
		t.Errorf("total = %f, want 16", sol.Total)
	}
}

func TestCapacityRespected(t *testing.T) {
	rs := chain(6)
	capacity := int64(5 << 20)
	for _, o := range []Options{{GreedyOnly: true}, {}} {
		sol := optimize(rs, capacity, o)
		if sol.GMUsedPeak > capacity {
			t.Errorf("%s: GM peak %d exceeds capacity %d", sol.Method, sol.GMUsedPeak, capacity)
		}
		if sol.Total >= 24 {
			t.Errorf("%s: no improvement with available capacity", sol.Method)
		}
	}
}

func TestComputeBoundRegionsUntouched(t *testing.T) {
	// §5.5: no benefit fusing compute-bound ops; greedy must not place
	// anything for TMax == TMin regions.
	rs := []RegionCost{
		{TMin: 5, TMax: 5, TWeight: 1, DWeight: 1 << 20, PinnableWeights: true,
			EdgeProducer: -1},
		{TMin: 5, TMax: 5, TWeight: 1, DWeight: 1 << 20, PinnableWeights: true,
			EdgeProducer: 0, EdgeBytes: 1 << 20, TEdgeRead: 1, TEdgeWrite: 1},
	}
	sol := optimize(rs, 1<<30, Options{GreedyOnly: true})
	if sol.Total != 10 {
		t.Errorf("total = %f, want 10", sol.Total)
	}
	if sol.PinWeight[0] || sol.PinWeight[1] || sol.EdgeOnChip[1] {
		t.Errorf("greedy placed tensors with zero benefit: %+v", sol)
	}
}

func TestWindowLimitsEdges(t *testing.T) {
	// The residency window is 4: a producer 4 regions back can keep its
	// tensor on chip, one 5 regions back cannot.
	rs := chain(7)
	rs[5].EdgeProducer = 1
	rs[6].EdgeProducer = 1
	sol := optimize(rs, 1<<40, Options{})
	if !sol.EdgeOnChip[5] {
		t.Error("window 4 must admit a distance-4 edge")
	}
	if sol.EdgeOnChip[6] {
		t.Error("window 4 must reject a distance-5 edge")
	}
}

func TestResidencyCharged(t *testing.T) {
	// An edge spanning regions [0..3] must be charged against capacity in
	// every intermediate region: with capacity just below tensor+pins it
	// cannot coexist with pins in between.
	rs := chain(4)
	rs[3].EdgeProducer = 0
	rs[3].EdgeBytes = 10 << 20
	rs[3].TEdgeRead = 3 // very valuable
	capacity := int64(11 << 20)
	sol := optimize(rs, capacity, Options{})
	if sol.GMUsedPeak > capacity {
		t.Fatalf("peak %d exceeds capacity", sol.GMUsedPeak)
	}
	if sol.EdgeOnChip[3] {
		// Taking the big edge leaves ≤1MiB: at most zero 2MiB pins.
		for i, p := range sol.PinWeight {
			if p {
				t.Errorf("region %d pinned alongside a capacity-filling edge", i)
			}
		}
	}
}

func TestUnpinnableWeights(t *testing.T) {
	rs := chain(2)
	rs[1].PinnableWeights = false
	sol := optimize(rs, 1<<40, Options{})
	if sol.PinWeight[1] {
		t.Error("unpinnable region must not pin weights")
	}
}

func TestILPMatchesGreedyOrBetter(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		n := 3 + r.Intn(6)
		rs := make([]RegionCost, n)
		for i := range rs {
			tmin := 1 + r.Float64()
			rs[i] = RegionCost{
				TMin: tmin, TMax: tmin + r.Float64()*3,
				TWeight: r.Float64() * 2, DWeight: int64(1+r.Intn(8)) << 20,
				PinnableWeights: r.Intn(4) != 0,
				EdgeProducer:    i - 1 - r.Intn(2),
				EdgeBytes:       int64(1+r.Intn(4)) << 20,
				TEdgeRead:       r.Float64() * 2,
				TEdgeWrite:      r.Float64(),
			}
			if rs[i].EdgeProducer < 0 {
				rs[i].EdgeProducer = -1
			}
		}
		capacity := int64(4+r.Intn(20)) << 20
		g := optimize(rs, capacity, Options{GreedyOnly: true})
		x := optimize(rs, capacity, Options{})
		if x.Total > g.Total+1e-9 {
			t.Fatalf("trial %d: ILP total %.4f worse than greedy %.4f (method %s)",
				trial, x.Total, g.Total, x.Method)
		}
		if x.GMUsedPeak > capacity {
			t.Fatalf("trial %d: ILP exceeded capacity", trial)
		}
	}
}

func TestILPBeatsGreedyOnSaturationTrap(t *testing.T) {
	// One item with great density but a saturating region (capped value)
	// vs two cheaper items that fill capacity better.
	rs := []RegionCost{
		{TMin: 1, TMax: 2, TWeight: 5, DWeight: 4 << 20, EdgeProducer: -1, PinnableWeights: true},
		{TMin: 1, TMax: 3, TWeight: 1.8, DWeight: 3 << 20, EdgeProducer: -1, PinnableWeights: true},
		{TMin: 1, TMax: 3, TWeight: 1.8, DWeight: 3 << 20, EdgeProducer: -1, PinnableWeights: true},
	}
	capacity := int64(6 << 20)
	g := optimize(rs, capacity, Options{GreedyOnly: true})
	x := optimize(rs, capacity, Options{})
	if x.Total > g.Total {
		t.Errorf("ILP (%.2f) worse than greedy (%.2f)", x.Total, g.Total)
	}
	if math.Abs(x.Total-(2+1.2+1.2)) > 1e-6 {
		t.Errorf("ILP total = %.3f, want 4.4", x.Total)
	}
	if x.Method == "greedy" {
		t.Errorf("expected ILP method, got %s", x.Method)
	}
}

func TestTimesMonotoneInCapacity(t *testing.T) {
	rs := chain(8)
	prev := math.Inf(1)
	for capMiB := int64(0); capMiB <= 64; capMiB += 8 {
		sol := optimize(rs, capMiB<<20, Options{})
		if sol.Total > prev+1e-9 {
			t.Errorf("total time increased at capacity %d MiB: %.4f > %.4f", capMiB, sol.Total, prev)
		}
		prev = sol.Total
	}
}

func TestEmptyRegions(t *testing.T) {
	sol := optimize(nil, 1<<20, Options{})
	if sol.Total != 0 || len(sol.Times) != 0 {
		t.Errorf("empty solve: %+v", sol)
	}
}
