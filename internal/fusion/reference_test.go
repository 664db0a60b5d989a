package fusion

// referenceGreedy is a frozen, verbatim copy of the pre-optimization
// greedy (full peakUsage sweep per placement test, no candidate
// pruning). It is the oracle for TestGreedyMatchesReference: the
// rewritten greedy in solve.go claims to be selection-order preserving,
// and this copy keeps that claim falsifiable. Do not "improve" it.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// peakUsage is peakUsageBuf with a fresh sweep buffer.
func peakUsage(sol *Solution, regions []RegionCost) int64 {
	return peakUsageBuf(sol, regions, make([]int64, len(regions)+1))
}

// usableWithin is UsableEdges for a residency window w other than the
// production one, so the fuzzers also cover narrower and wider masks.
func usableWithin(producers []int, w int) []bool {
	usable := make([]bool, len(producers))
	for i, p := range producers {
		usable[i] = p >= 0 && i-p >= 1 && i-p <= w
	}
	return usable
}

func referenceGreedy(regions []RegionCost, usable []bool, capacity int64) (pin, keep []bool) {
	n := len(regions)
	pin = make([]bool, n)
	keep = make([]bool, n)
	saved := make([]float64, n)

	marginal := func(i int, t float64) float64 {
		r := regions[i]
		room := (r.TMax - r.TMin) - saved[i]
		if room <= 0 {
			return 0
		}
		return math.Min(t, room)
	}
	edgeValue := func(i int) float64 {
		v := marginal(i, regions[i].TEdgeRead)
		if p := regions[i].EdgeProducer; p >= 0 {
			v += marginal(p, regions[i].TEdgeWrite)
		}
		return v
	}

	type cand struct {
		isEdge bool
		idx    int
		bytes  int64
	}
	var cands []cand
	for i, r := range regions {
		if r.PinnableWeights && r.DWeight > 0 && r.TWeight > 0 {
			cands = append(cands, cand{false, i, r.DWeight})
		}
		if usable[i] && r.EdgeResidentBytes > 0 {
			cands = append(cands, cand{true, i, r.EdgeResidentBytes})
		}
	}

	var maxBase int64
	for _, r := range regions {
		if r.BaseGM > maxBase {
			maxBase = r.BaseGM
		}
	}
	budget := capacity - maxBase

	trialSol := Solution{PinWeight: pin, EdgeOnChip: keep}
	for len(cands) > 0 {
		best, bestVal := -1, 0.0
		for ci, c := range cands {
			var v float64
			if c.isEdge {
				v = edgeValue(c.idx)
			} else {
				v = marginal(c.idx, regions[c.idx].TWeight)
			}
			if c.bytes > 0 {
				v /= float64(c.bytes)
			}
			if v > bestVal {
				bestVal, best = v, ci
			}
		}
		if best < 0 || bestVal <= 0 {
			break
		}
		c := cands[best]
		cands = append(cands[:best], cands[best+1:]...)
		if c.isEdge {
			keep[c.idx] = true
		} else {
			pin[c.idx] = true
		}
		if peakUsage(&trialSol, regions) > budget+maxBase {
			if c.isEdge {
				keep[c.idx] = false
			} else {
				pin[c.idx] = false
			}
			continue
		}
		if c.isEdge {
			saved[c.idx] += marginal(c.idx, regions[c.idx].TEdgeRead)
			if p := regions[c.idx].EdgeProducer; p >= 0 {
				saved[p] += marginal(p, regions[c.idx].TEdgeWrite)
			}
		} else {
			saved[c.idx] += marginal(c.idx, regions[c.idx].TWeight)
		}
	}
	return pin, keep
}

// randomRegions synthesizes a plausible chain of fusion regions with
// randomized timings, weights, edges, and window distances.
func randomRegions(rng *rand.Rand, n int) ([]RegionCost, []bool) {
	regions := make([]RegionCost, n)
	for i := range regions {
		compute := rng.Float64() * 1e-4
		dram := compute * (0.5 + 2*rng.Float64())
		r := RegionCost{
			TMin:            compute,
			TMax:            math.Max(compute, dram),
			DWeight:         rng.Int63n(1 << 22),
			PinnableWeights: rng.Intn(4) != 0,
			EdgeProducer:    -1,
		}
		r.TWeight = float64(r.DWeight) * 1e-11
		if i > 0 && rng.Intn(3) != 0 {
			r.EdgeProducer = i - 1 - rng.Intn(min(i, 6))
			r.EdgeBytes = rng.Int63n(1 << 22)
			r.EdgeResidentBytes = r.EdgeBytes / int64(1+rng.Intn(8))
			r.TEdgeRead = float64(r.EdgeBytes) * 1e-11
			if rng.Intn(2) == 0 {
				r.TEdgeWrite = float64(r.EdgeBytes) * 1e-11
			}
		}
		if rng.Intn(8) == 0 {
			r.BaseGM = rng.Int63n(1 << 20)
		}
		regions[i] = r
	}
	producers := make([]int, n)
	for i := range regions {
		producers[i] = regions[i].EdgeProducer
	}
	return regions, usableWithin(producers, 1+rng.Intn(6))
}

// TestGreedyMatchesReference fuzzes the optimized greedy against the
// frozen reference implementation: for every randomized instance both
// must pick the identical pin/keep assignment.
func TestGreedyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		regions, usable := randomRegions(rng, n)
		// Normalize EdgeResidentBytes the way SolvePlanned does before
		// calling greedy.
		for i := range regions {
			if regions[i].EdgeResidentBytes == 0 {
				regions[i].EdgeResidentBytes = regions[i].EdgeBytes
			}
		}
		capacity := rng.Int63n(1 << 24)
		wantPin, wantKeep := referenceGreedy(regions, usable, capacity)
		gotPin, gotKeep, _ := freshGreedy(regions, usable, capacity)
		if !reflect.DeepEqual(wantPin, gotPin) || !reflect.DeepEqual(wantKeep, gotKeep) {
			t.Fatalf("trial %d (n=%d, cap=%d): greedy diverged from reference\nwant pin %v keep %v\ngot  pin %v keep %v",
				trial, n, capacity, wantPin, wantKeep, gotPin, gotKeep)
		}
	}
}

// TestGreedyMatchesReferenceTies stresses the heap's tie-breaking:
// instances built from a tiny set of quantized byte sizes and time
// constants produce many candidates with bit-identical value densities,
// where selection order is decided purely by enumeration order. The heap
// must still land the exact reference sequence.
func TestGreedyMatchesReferenceTies(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(30)
		regions := make([]RegionCost, n)
		for i := range regions {
			bytes := int64(1) << (10 + rng.Intn(3)) // three quantized sizes
			r := RegionCost{
				TMin:            1e-5,
				TMax:            1e-5 + float64(bytes)*1e-11*float64(1+rng.Intn(2)),
				DWeight:         bytes,
				PinnableWeights: rng.Intn(3) != 0,
				EdgeProducer:    -1,
			}
			r.TWeight = float64(bytes) * 1e-11 // identical density across regions
			if i > 0 && rng.Intn(2) == 0 {
				r.EdgeProducer = i - 1 - rng.Intn(min(i, 4))
				r.EdgeBytes = bytes
				r.EdgeResidentBytes = bytes
				r.TEdgeRead = float64(bytes) * 1e-11
				if rng.Intn(2) == 0 {
					r.TEdgeWrite = float64(bytes) * 1e-11
				}
			}
			regions[i] = r
		}
		producers := make([]int, n)
		for i := range regions {
			producers[i] = regions[i].EdgeProducer
		}
		usable := usableWithin(producers, 1+rng.Intn(4))
		capacity := int64(1) << (11 + rng.Intn(5))
		wantPin, wantKeep := referenceGreedy(regions, usable, capacity)
		gotPin, gotKeep, _ := freshGreedy(regions, usable, capacity)
		if !reflect.DeepEqual(wantPin, gotPin) || !reflect.DeepEqual(wantKeep, gotKeep) {
			t.Fatalf("tie trial %d (n=%d, cap=%d): greedy diverged from reference\nwant pin %v keep %v\ngot  pin %v keep %v",
				trial, n, capacity, wantPin, wantKeep, gotPin, gotKeep)
		}
	}
}
