package fusion

import (
	"math"
	"sync"
	"time"

	"fast/internal/ilp"
)

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

// greedyScratch pools the solver's per-call working memory; Plan.Evaluate
// runs one greedy per trial, so these buffers are the hottest transient
// allocations in a search.
type greedyScratch struct {
	saved []float64
	rb    []int64
	heap  []heapCand
}

var greedyPool = sync.Pool{New: func() any { return new(greedyScratch) }}

// greedy builds a density-ordered warm start: each candidate (weight pin
// or edge residency) is taken when its marginal time saving per GM byte
// is best and capacity allows. Savings saturate at each region's TMin, so
// marginal values are recomputed as items land.
//
// This is the design-dependent inner loop of every search trial. Two
// structural optimizations over the reference implementation, both
// selection-order preserving (the fuzz test against the frozen reference
// keeps that claim falsifiable):
//
//   - Peak tracking: pinned weights charge every region uniformly, so
//     peak GM usage decomposes as pinnedTotal + max_k(resident_k +
//     BaseGM_k) and each placement test needs only the candidate's own
//     residency interval, not a full sweep.
//
//   - Lazy selection: candidate values only ever shrink (saved[] grows
//     monotonically, so marginal() is non-increasing), which admits the
//     classic lazy-greedy heap. Candidates sit in a max-heap ordered by
//     cached density; on pop the top is re-scored — if it decayed it is
//     pushed back down with its fresh value, if it held it is the true
//     maximum, because every other cached value is an upper bound on its
//     own fresh value. Equal densities resolve by enumeration order,
//     matching the linear scan's first-strict-maximum rule, so the same
//     candidates land in the same sequence as the reference. This turns
//     the O(candidates) re-scan per selection into O(log candidates)
//     amortized.
func greedy(regions []RegionCost, usable []bool, capacity int64) (pin, keep, hold []bool) {
	n := len(regions)
	pin = make([]bool, n)
	keep = make([]bool, n)
	hold = make([]bool, n)
	gs := greedyPool.Get().(*greedyScratch)
	defer greedyPool.Put(gs)
	saved := resetF64(&gs.saved, n)

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

	h := gs.heap[:0]
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
	rb := resetI64(&gs.rb, n)
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
	gs.heap = h[:0]
	return pin, keep, hold
}

// resetF64 grows *s to n and zeroes it.
func resetF64(s *[]float64, n int) []float64 {
	if cap(*s) < n {
		*s = make([]float64, n)
	}
	out := (*s)[:n]
	for i := range out {
		out[i] = 0
	}
	*s = out
	return out
}

// resetI64 grows *s to n and zeroes it.
func resetI64(s *[]int64, n int) []int64 {
	if cap(*s) < n {
		*s = make([]int64, n)
	}
	out := (*s)[:n]
	for i := range out {
		out[i] = 0
	}
	*s = out
	return out
}

// fusionILP is the reduced Figure 8 problem plus the maps from region to
// variable (-1: no such variable) that decode its solution. Variables:
// w_i (weight pin), e_i (edge residency, consumer-indexed), h_i
// (KV-cache hold, pin-like: charges every capacity row), and shifted
// continuous T'_i = T_i - TMin_i ≥ 0.
type fusionILP struct {
	prob                   ilp.Problem
	wIdx, eIdx, hIdx, tIdx []int
}

// rowArena accumulates sparse constraint rows back to back in two flat
// arrays, so a problem with r rows costs a handful of allocations, not
// r.
type rowArena struct {
	idx   []int32
	val   []float64
	ends  []int
	start int // first entry of the row under construction
}

// sub applies row[j] -= v to the row under construction, whose entries
// all start at zero — the dense builder's statement, entry for entry.
func (a *rowArena) sub(j int, v float64) {
	for k := a.start; k < len(a.idx); k++ {
		if a.idx[k] == int32(j) {
			a.val[k] -= v
			return
		}
	}
	a.idx = append(a.idx, int32(j))
	a.val = append(a.val, 0-v)
}

// endRow closes the row under construction: columns ascending, zero
// coefficients dropped.
func (a *rowArena) endRow() {
	lo := a.start
	for p := lo; p < len(a.idx); p++ {
		j, v := a.idx[p], a.val[p]
		q := p
		for ; q > lo && a.idx[q-1] > j; q-- {
			a.idx[q], a.val[q] = a.idx[q-1], a.val[q-1]
		}
		a.idx[q], a.val[q] = j, v
	}
	n := lo
	for p := lo; p < len(a.idx); p++ {
		if a.val[p] != 0 {
			a.idx[n], a.val[n] = a.idx[p], a.val[p]
			n++
		}
	}
	a.idx, a.val = a.idx[:n], a.val[:n]
	a.ends = append(a.ends, n)
	a.start = n
}

// rows slices the arena into the problem's rows.
func (a *rowArena) rows() []ilp.Row {
	out := make([]ilp.Row, len(a.ends))
	lo := 0
	for i, hi := range a.ends {
		out[i] = ilp.Row{Idx: a.idx[lo:hi:hi], Val: a.val[lo:hi:hi]}
		lo = hi
	}
	return out
}

// groupBy buckets the indices j in [0, n) with 0 ≤ key(j) < n by key:
// bucket k is items[ptr[k]:ptr[k+1]], ascending.
func groupBy(n int, key func(j int) int) (ptr, items []int32) {
	ptr = make([]int32, n+2)
	for j := 0; j < n; j++ {
		if k := key(j); k >= 0 {
			ptr[k+2]++
		}
	}
	for k := 0; k < n; k++ {
		ptr[k+2] += ptr[k+1]
	}
	items = make([]int32, ptr[n+1])
	for j := 0; j < n; j++ {
		if k := key(j); k >= 0 {
			items[ptr[k+1]] = int32(j)
			ptr[k+1]++
		}
	}
	return ptr[:n+1], items
}

// buildILP builds the reduced Figure 8 ILP in sparse form; ok is false
// when no placement decision exists.
//
// The formulation is presolved before it reaches the simplex, whose
// per-pivot cost scales with the non-zeros of the rows and basis
// columns it touches, so dead dimensions are pure overhead:
//
//   - fixed-zero binaries (non-pinnable or weightless regions, edges
//     outside the residency window) are dropped instead of carried as
//     columns with 0 upper-bound rows;
//   - T'_i for regions no live binary can affect is the constant
//     TMax-TMin, dropped from the objective (constants shift every
//     node's bound equally, so branching is unaffected);
//   - duplicate capacity rows (runs of regions spanned by the same pins
//     and edges) collapse to their tightest right-hand side.
//
// The reduction is exact: the feasible set over the live binaries and
// the optimal objective are unchanged, only tie-breaking among equally
// optimal assignments may differ from the unreduced formulation.
func buildILP(regions []RegionCost, usable []bool, capacity int64) (fusionILP, bool) {
	n := len(regions)
	// Live binary variables, reduced-index maps.
	f := fusionILP{wIdx: make([]int, n), eIdx: make([]int, n), hIdx: make([]int, n), tIdx: make([]int, n)}
	vars := 0
	for i := range regions {
		f.wIdx[i] = -1
		if regions[i].PinnableWeights && regions[i].DWeight > 0 {
			f.wIdx[i] = vars
			vars++
		}
	}
	for j := range regions {
		f.eIdx[j] = -1
		if usable[j] {
			f.eIdx[j] = vars
			vars++
		}
	}
	// Per producer, the regions whose live edge it feeds.
	cptr, cons := groupBy(n, func(j int) int {
		if p := regions[j].EdgeProducer; f.eIdx[j] >= 0 && p < n {
			return p
		}
		return -1
	})
	for i := range regions {
		f.hIdx[i] = -1
		if regions[i].KVBytes > 0 && regions[i].TKVRead > 0 {
			f.hIdx[i] = vars
			vars++
		}
	}
	if vars == 0 {
		return fusionILP{}, false
	}
	// T'_i stays a variable only where a live binary can lower it.
	nv := vars
	for i := range regions {
		f.tIdx[i] = -1
		if f.wIdx[i] >= 0 || f.eIdx[i] >= 0 || f.hIdx[i] >= 0 || cptr[i+1] > cptr[i] {
			f.tIdx[i] = nv
			nv++
		}
	}

	c := make([]float64, nv)
	u := make([]float64, nv)
	bin := make([]bool, nv)
	for i := 0; i < vars; i++ {
		bin[i] = true
		u[i] = 1
	}
	for i := range regions {
		if ti := f.tIdx[i]; ti >= 0 {
			c[ti] = 1 // minimize Σ live T'
			u[ti] = math.Inf(1)
		}
	}

	var a rowArena
	var b []float64

	// T'_i ≥ (TMax-TMin) - TWeight·w_i - TEdgeRead·e_i - TKVRead·h_i
	//        - Σ_{j: prod(j)=i} TEdgeWrite_j·e_j.
	for i, r := range regions {
		ti := f.tIdx[i]
		if ti < 0 {
			continue
		}
		a.sub(ti, 1)
		if f.wIdx[i] >= 0 {
			a.sub(f.wIdx[i], r.TWeight)
		}
		if f.eIdx[i] >= 0 {
			a.sub(f.eIdx[i], r.TEdgeRead)
		}
		if f.hIdx[i] >= 0 {
			a.sub(f.hIdx[i], r.TKVRead)
		}
		for _, j := range cons[cptr[i]:cptr[i+1]] {
			a.sub(f.eIdx[j], regions[j].TEdgeWrite)
		}
		a.endRow()
		b = append(b, -(r.TMax - r.TMin))
	}

	// Capacity per region k: Σ_j W_j w_j + Σ_{edges spanning k} bytes·e_j
	// + Σ_j KV_j h_j ≤ C - B_k. Pins and held caches charge every row, an
	// edge charges its whole residency interval [producer, consumer], so
	// the rows differ only in which edges are live: sweep k with the live
	// edges kept in consumer (= column) order. Consecutive regions often
	// see the identical left-hand side; identical rows keep only their
	// tightest bound.
	var pinIdx, holdIdx []int32
	var pinVal, holdVal []float64
	for j, rj := range regions {
		if f.wIdx[j] >= 0 {
			pinIdx = append(pinIdx, int32(f.wIdx[j]))
			pinVal = append(pinVal, float64(rj.DWeight))
		}
		if f.hIdx[j] >= 0 {
			holdIdx = append(holdIdx, int32(f.hIdx[j]))
			holdVal = append(holdVal, float64(rj.KVBytes))
		}
	}
	// Per region, the edges (by consumer) whose residency begins there.
	sptr, starts := groupBy(n, func(j int) int {
		if p := max(regions[j].EdgeProducer, 0); f.eIdx[j] >= 0 && regions[j].EdgeResidentBytes != 0 && p <= j {
			return p
		}
		return -1
	})
	tight := make(map[string]int) // live-edge signature → row index
	var live []int32              // consumers of the edges spanning k, ascending
	var sig []byte
	for k, rk := range regions {
		for len(live) > 0 && int(live[0]) < k {
			live = live[1:]
		}
		for _, j := range starts[sptr[k]:sptr[k+1]] {
			q := len(live)
			live = append(live, j)
			for ; q > 0 && live[q-1] > j; q-- {
				live[q] = live[q-1]
			}
			live[q] = j
		}
		rhs := float64(capacity - rk.BaseGM)
		sig = sig[:0]
		for _, j := range live {
			sig = append(sig, byte(j), byte(j>>8), byte(j>>16), byte(j>>24))
		}
		if prev, dup := tight[string(sig)]; dup {
			if rhs < b[prev] {
				b[prev] = rhs
			}
			continue
		}
		tight[string(sig)] = len(b)
		a.idx = append(a.idx, pinIdx...)
		a.val = append(a.val, pinVal...)
		for _, j := range live {
			a.idx = append(a.idx, int32(f.eIdx[j]))
			a.val = append(a.val, float64(regions[j].EdgeResidentBytes))
		}
		a.idx = append(a.idx, holdIdx...)
		a.val = append(a.val, holdVal...)
		a.endRow()
		b = append(b, rhs)
	}

	f.prob = ilp.Problem{C: c, A: a.rows(), B: b, U: u, Binary: bin}
	return f, true
}

// solveILP solves the reduced Figure 8 ILP with branch-and-bound, warm
// started from the greedy placement.
func solveILP(regions []RegionCost, usable []bool, capacity int64,
	warmPin, warmKeep, warmHold []bool, deadline time.Duration, dense bool) (Assignment, bool) {

	n := len(regions)
	if n == 0 {
		return Assignment{}, false
	}
	f, ok := buildILP(regions, usable, capacity)
	if !ok {
		return Assignment{}, false
	}
	wIdx, eIdx, hIdx, tIdx := f.wIdx, f.eIdx, f.hIdx, f.tIdx

	warm := make([]float64, len(f.prob.C))
	saved := savedByRegion(regions, warmPin, warmKeep, warmHold)
	for i, r := range regions {
		if warmPin[i] && wIdx[i] >= 0 {
			warm[wIdx[i]] = 1
		}
		if warmKeep[i] && eIdx[i] >= 0 {
			warm[eIdx[i]] = 1
		}
		if warmHold != nil && warmHold[i] && hIdx[i] >= 0 {
			warm[hIdx[i]] = 1
		}
		if ti := tIdx[i]; ti >= 0 {
			warm[ti] = math.Max(0, (r.TMax-r.TMin)-saved[i])
		}
	}

	res, err := ilp.Solve(f.prob, ilp.Options{
		//fast:allow nondetsource sets the ILP budget deadline; a timeout falls back to the deterministic greedy placement
		Deadline:  time.Now().Add(deadline),
		WarmStart: warm,
		Dense:     dense,
	})
	if err != nil || !res.Feasible {
		return Assignment{}, false
	}
	asn := Assignment{
		Pin:    make([]bool, n),
		Keep:   make([]bool, n),
		Hold:   make([]bool, n),
		Method: "ilp-incumbent",
		Nodes:  res.Nodes,
	}
	for i := 0; i < n; i++ {
		asn.Pin[i] = wIdx[i] >= 0 && res.X[wIdx[i]] > 0.5
		asn.Keep[i] = eIdx[i] >= 0 && res.X[eIdx[i]] > 0.5
		asn.Hold[i] = hIdx[i] >= 0 && res.X[hIdx[i]] > 0.5
	}
	if res.Optimal {
		asn.Method = "ilp-optimal"
	} else {
		asn.Gap = res.Gap
	}
	return asn, true
}
