package fusion

// lazyGreedy is a frozen copy of the lazy-heap greedy the indexed one
// in solve.go replaced — the second oracle next to referenceGreedy.
// referenceGreedy has no KV-cache class and the fuzzers stop at 40
// regions; this copy carries the KV holds and runs on the compiled-plan
// cost tables of every registry model (greedy_plans_test.go). Only its
// pooled scratch was swapped for local slices. Do not "improve" it.

import "math"

// heapCand is one greedy candidate (a weight pin or an edge residency)
// inside the lazy max-heap: val caches the candidate's value density at
// the time it was last scored, seq is its enumeration order for
// tie-breaking, idx the region, bytes the GM footprint.
type heapCand struct {
	val    float64
	seq    int32
	idx    int32
	isEdge bool
	// isKV marks a KV-cache hold candidate: capacity-wise it behaves
	// like a pin (charges every region), value-wise it saves TKVRead.
	isKV  bool
	bytes int64
}

// candBefore is the heap priority: higher cached density first; among
// equal densities, earlier enumeration order — exactly the candidate the
// reference's linear scan (first strict maximum) selects.
func candBefore(a, b heapCand) bool {
	if a.val != b.val {
		return a.val > b.val
	}
	return a.seq < b.seq
}

func candSiftDown(h []heapCand, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		best := l
		if r := l + 1; r < len(h) && candBefore(h[r], h[l]) {
			best = r
		}
		if !candBefore(h[best], h[i]) {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

func lazyGreedy(regions []RegionCost, usable []bool, capacity int64) (pin, keep, hold []bool) {
	n := len(regions)
	pin = make([]bool, n)
	keep = make([]bool, n)
	hold = make([]bool, n)
	saved := make([]float64, n)

	marginal := func(i int, t float64) float64 {
		r := &regions[i]
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
	// density mirrors the reference's scoring arithmetic exactly: raw
	// marginal first, the per-byte division only when positive.
	density := func(c heapCand) float64 {
		var v float64
		switch {
		case c.isEdge:
			v = edgeValue(int(c.idx))
		case c.isKV:
			v = marginal(int(c.idx), regions[c.idx].TKVRead)
		default:
			v = marginal(int(c.idx), regions[c.idx].TWeight)
		}
		if v <= 0 {
			return 0
		}
		if c.bytes > 0 {
			v /= float64(c.bytes)
		}
		return v
	}

	var h []heapCand
	for i := range regions {
		r := &regions[i]
		if r.PinnableWeights && r.DWeight > 0 && r.TWeight > 0 {
			h = append(h, heapCand{seq: int32(len(h)), idx: int32(i), bytes: r.DWeight})
		}
		if usable[i] && r.EdgeResidentBytes > 0 {
			h = append(h, heapCand{seq: int32(len(h)), idx: int32(i), isEdge: true, bytes: r.EdgeResidentBytes})
		}
		// Encoder workloads enumerate no KV candidates, so their
		// selection sequence — and hence the frozen-reference
		// differential — is untouched.
		if r.KVBytes > 0 && r.TKVRead > 0 {
			h = append(h, heapCand{seq: int32(len(h)), idx: int32(i), isKV: true, bytes: r.KVBytes})
		}
	}
	for i := range h {
		h[i].val = density(h[i])
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		candSiftDown(h, i)
	}

	// rb[k] = BaseGM_k plus the edge tensors resident across region k;
	// residentPeak = max rb[k]. Peak GM usage for any assignment is
	// pinnedTotal + residentPeak, maintained incrementally.
	rb := make([]int64, n)
	var residentPeak, pinnedTotal int64
	for k := range regions {
		rb[k] = regions[k].BaseGM
		if rb[k] > residentPeak {
			residentPeak = rb[k]
		}
	}

	for len(h) > 0 {
		if v := density(h[0]); v <= 0 {
			// Saved[] only grows: this candidate stays worthless forever.
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			candSiftDown(h, 0)
			continue
		} else if v < h[0].val {
			// Stale upper bound: re-key and let the heap re-rank it.
			h[0].val = v
			candSiftDown(h, 0)
			continue
		}
		c := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		candSiftDown(h, 0)
		// Capacity test over the candidate's own footprint: an edge only
		// occupies its residency interval [producer, consumer]; a pin
		// charges every region.
		if c.isEdge {
			ci := int(c.idx)
			p := regions[ci].EdgeProducer
			var top int64
			for k := p; k <= ci; k++ {
				if rb[k] > top {
					top = rb[k]
				}
			}
			peakAfter := residentPeak
			if top+c.bytes > peakAfter {
				peakAfter = top + c.bytes
			}
			if pinnedTotal+peakAfter > capacity {
				continue
			}
			residentPeak = peakAfter
			for k := p; k <= ci; k++ {
				rb[k] += c.bytes
			}
			keep[ci] = true
			saved[ci] += marginal(ci, regions[ci].TEdgeRead)
			if p >= 0 {
				saved[p] += marginal(p, regions[ci].TEdgeWrite)
			}
		} else {
			ci := int(c.idx)
			if pinnedTotal+c.bytes+residentPeak > capacity {
				continue
			}
			pinnedTotal += c.bytes
			if c.isKV {
				hold[ci] = true
				saved[ci] += marginal(ci, regions[ci].TKVRead)
			} else {
				pin[ci] = true
				saved[ci] += marginal(ci, regions[ci].TWeight)
			}
		}
	}
	return pin, keep, hold
}
