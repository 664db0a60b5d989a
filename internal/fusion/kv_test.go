package fusion

import (
	"math/rand"
	"testing"
	"time"
)

// kvRegion builds a memory-bound decode-attention region: no pinnable
// weights (the stationary operand is the cache itself), a KV-cache slab
// whose residency saves TKVRead.
func kvRegion(kvBytes int64, tKV float64) RegionCost {
	return RegionCost{
		TMin: 1, TMax: 2 + tKV,
		EdgeProducer: -1,
		KVBytes:      kvBytes, TKVRead: tKV,
	}
}

func TestKVHeldUnderAmpleCapacity(t *testing.T) {
	rs := []RegionCost{kvRegion(4<<20, 1.5), kvRegion(4<<20, 1.5)}
	sol := optimize(rs, 1<<30, Options{GreedyOnly: true})
	for i := range rs {
		if !sol.KVOnChip[i] {
			t.Errorf("region %d cache not held with ample capacity", i)
		}
		if sol.Times[i] != 2 {
			t.Errorf("region %d time = %f, want TMax - TKVRead = 2", i, sol.Times[i])
		}
	}
	// Held slabs charge GM like pins: both slabs, at every region.
	if sol.GMUsedPeak != 8<<20 {
		t.Errorf("peak = %d, want both slabs resident (%d)", sol.GMUsedPeak, int64(8<<20))
	}
}

func TestKVDroppedUnderTightCapacity(t *testing.T) {
	rs := []RegionCost{kvRegion(4<<20, 1.5), kvRegion(4<<20, 1.5)}
	// Room for exactly one slab: hold one, stream the other.
	sol := optimize(rs, 4<<20, Options{GreedyOnly: true})
	var held int
	for i := range rs {
		if sol.KVOnChip[i] {
			held++
		}
	}
	if held != 1 {
		t.Errorf("%d slabs held in a one-slab capacity, want 1", held)
	}
	if sol.GMUsedPeak > 4<<20 {
		t.Errorf("peak %d exceeds capacity", sol.GMUsedPeak)
	}
	// No capacity at all: nothing held, times stay at TMax.
	none := optimize(rs, 1<<20, Options{GreedyOnly: true})
	for i := range rs {
		if none.KVOnChip[i] {
			t.Errorf("region %d cache held beyond capacity", i)
		}
		if none.Times[i] != rs[i].TMax {
			t.Errorf("region %d time = %f, want TMax", i, none.Times[i])
		}
	}
}

func TestKVCompetesWithWeightsByDensity(t *testing.T) {
	// One slot: the weight pin saves 1.0/4MiB, the cache hold 2.0/4MiB.
	// The denser cache must win it.
	rs := []RegionCost{
		{TMin: 1, TMax: 3, TWeight: 1, DWeight: 4 << 20, PinnableWeights: true, EdgeProducer: -1},
		kvRegion(4<<20, 2),
	}
	sol := optimize(rs, 4<<20, Options{GreedyOnly: true})
	if sol.PinWeight[0] || !sol.KVOnChip[1] {
		t.Errorf("pin=%v hold=%v: cache hold should out-rank the weight pin", sol.PinWeight[0], sol.KVOnChip[1])
	}
	// Double the capacity: both fit.
	both := optimize(rs, 8<<20, Options{GreedyOnly: true})
	if !both.PinWeight[0] || !both.KVOnChip[1] {
		t.Errorf("pin=%v hold=%v: both placements fit in 8 MiB", both.PinWeight[0], both.KVOnChip[1])
	}
}

func TestKVDisabledNeverHolds(t *testing.T) {
	rs := []RegionCost{kvRegion(1<<20, 1)}
	sol := optimize(rs, 1<<30, Options{Disable: true})
	if sol.KVOnChip == nil || sol.KVOnChip[0] {
		t.Errorf("disabled solve holds the cache: %v", sol.KVOnChip)
	}
}

// TestKVILPMatchesGreedyOrBetter extends the ILP-vs-greedy property to
// instances with all three residency classes (weights, edges, KV slabs):
// the exact solve must never be worse, and must respect capacity with
// held slabs charged at every region.
func TestKVILPMatchesGreedyOrBetter(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		n := 3 + r.Intn(6)
		rs := make([]RegionCost, n)
		for i := range rs {
			tmin := 1 + r.Float64()
			rs[i] = RegionCost{
				TMin: tmin, TMax: tmin + r.Float64()*4,
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
			if r.Intn(2) == 0 {
				rs[i].KVBytes = int64(1+r.Intn(6)) << 20
				rs[i].TKVRead = r.Float64() * 2
			}
		}
		capacity := int64(4+r.Intn(24)) << 20
		g := optimize(rs, capacity, Options{GreedyOnly: true})
		x := optimize(rs, capacity, Options{Deadline: 3 * time.Second})
		if x.Total > g.Total+1e-9 {
			t.Fatalf("trial %d: ILP total %.4f worse than greedy %.4f (method %s)",
				trial, x.Total, g.Total, x.Method)
		}
		for _, sol := range []Solution{g, x} {
			if sol.GMUsedPeak > capacity {
				t.Fatalf("trial %d: %s exceeded capacity: %d > %d", trial, sol.Method, sol.GMUsedPeak, capacity)
			}
		}
	}
}

// TestKVResolveRoundTrips: resolving a held Assignment must equal a
// fresh solve on KV-bearing instances (the plan cache path sim uses).
func TestKVResolveRoundTrips(t *testing.T) {
	rs := []RegionCost{
		kvRegion(2<<20, 1.2),
		{TMin: 1, TMax: 3, TWeight: 1, DWeight: 2 << 20, PinnableWeights: true,
			EdgeProducer: 0, EdgeBytes: 1 << 20, TEdgeRead: 0.5,
			KVBytes: 3 << 20, TKVRead: 0.8},
	}
	producers := []int{-1, 0}
	usable := UsableEdges(producers)
	opts := Options{GreedyOnly: true}
	capacity := int64(6 << 20)
	direct := optimizePlanned(rs, usable, capacity, opts)
	var asn Assignment
	SolvePlanned(&asn, rs, usable, capacity, opts)
	var resolved Solution
	ResolvePlanned(&resolved, rs, capacity, asn)
	if direct.Total != resolved.Total || direct.GMUsedPeak != resolved.GMUsedPeak {
		t.Errorf("resolve diverged: total %v vs %v, peak %v vs %v",
			direct.Total, resolved.Total, direct.GMUsedPeak, resolved.GMUsedPeak)
	}
	for i := range rs {
		if direct.KVOnChip[i] != resolved.KVOnChip[i] {
			t.Errorf("region %d: hold %v vs %v", i, direct.KVOnChip[i], resolved.KVOnChip[i])
		}
	}
}
