package fusion

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"fast/internal/ilp"
)

// Greedy candidate kinds.
const (
	kindPin  uint8 = iota // weight pin: charges every region, saves TWeight
	kindEdge              // edge residency: charges [producer, consumer]
	kindKV                // KV-cache hold: charges like a pin, saves TKVRead
)

// greedyCand is one greedy candidate. Its id — its index in
// greedyScratch.cands — is its enumeration order, the tie-break.
type greedyCand struct {
	bytes int64
	// region is the pinned/holding region, or the edge's consumer.
	region int32
	// pos is the candidate's heap position, -1 once it has left.
	pos  int32
	kind uint8
}

// heapEntry is one heap slot: a candidate and its exact value density
// at the current savings (always positive).
type heapEntry struct {
	val float64
	id  int32
}

// before is the selection order: higher density first, and among equal
// densities earlier enumeration — the reference's linear scan picks its
// first strict maximum.
func before(a, b heapEntry) bool {
	if a.val != b.val {
		return a.val > b.val
	}
	return a.id < b.id
}

// greedyScratch pools the greedy's per-call working memory; every
// search trial that reaches the simulator runs one greedy, so
// these buffers are the hottest transient allocations of a search.
type greedyScratch struct {
	saved []float64
	rb    []int64
	cands []greedyCand
	heap  []heapEntry
	// Region i's own candidates are ids first[i] ≤ id < first[i+1]; the
	// edge candidates whose producer it is are cons[cptr[i]:cptr[i+1]].
	first, cptr, cons []int32
}

var greedyPool = sync.Pool{New: func() any { return new(greedyScratch) }}

// set stores e at heap position i.
func (gs *greedyScratch) set(i int, e heapEntry) {
	gs.heap[i] = e
	gs.cands[e.id].pos = int32(i)
}

// up seats e at position i or above it and returns where it landed.
func (gs *greedyScratch) up(i int, e heapEntry) int {
	for i > 0 {
		p := (i - 1) / 2
		if !before(e, gs.heap[p]) {
			break
		}
		gs.set(i, gs.heap[p])
		i = p
	}
	gs.set(i, e)
	return i
}

// down seats e at position i or below it and returns where it landed.
func (gs *greedyScratch) down(i int, e heapEntry) int {
	h := gs.heap
	for {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		c := l
		if r := l + 1; r < len(h) && before(h[r], h[l]) {
			c = r
		}
		if !before(h[c], e) {
			break
		}
		gs.set(i, h[c])
		i = c
	}
	gs.set(i, e)
	return i
}

// fix seats e at position i, whose old entry it replaces: below it, or
// if it belongs there, above it.
func (gs *greedyScratch) fix(i int, e heapEntry) {
	if gs.down(i, e) == i {
		gs.up(i, e)
	}
}

// remove takes heap position i out. The last entry, moved into the hole,
// may belong above the hole as well as below it, so fix sifts both ways.
func (gs *greedyScratch) remove(i int) {
	last := len(gs.heap) - 1
	gs.cands[gs.heap[i].id].pos = -1
	e := gs.heap[last]
	gs.heap = gs.heap[:last]
	if i < last {
		gs.fix(i, e)
	}
}

// touch re-keys the in-heap candidates that read region i's savings —
// its own, and the edges it produces — after those savings grew.
func (gs *greedyScratch) touch(regions []RegionCost, i int) {
	for id := gs.first[i]; id < gs.first[i+1]; id++ {
		gs.rescore(regions, id)
	}
	for _, id := range gs.cons[gs.cptr[i]:gs.cptr[i+1]] {
		gs.rescore(regions, id)
	}
}

// rescore re-keys candidate id at the current savings, dropping it from
// the heap once it is worthless.
func (gs *greedyScratch) rescore(regions []RegionCost, id int32) {
	c := &gs.cands[id]
	if c.pos < 0 {
		return
	}
	if v := density(regions, gs.saved, c); v <= 0 {
		gs.remove(int(c.pos))
	} else if v != gs.heap[c.pos].val {
		gs.fix(int(c.pos), heapEntry{val: v, id: id})
	}
}

// marginal is the saving t still buys in region r, which has already
// saved saved: savings saturate at TMax - TMin. (The builtin min is
// math.Min, NaN and signed zeros included.)
func marginal(r *RegionCost, saved, t float64) float64 {
	room := (r.TMax - r.TMin) - saved
	if room <= 0 {
		return 0
	}
	return min(t, room)
}

// density is c's value per GM byte at the current savings, with the
// reference's arithmetic: raw marginal first, the per-byte division only
// when positive.
func density(regions []RegionCost, saved []float64, c *greedyCand) float64 {
	i := c.region
	r := &regions[i]
	var v float64
	switch c.kind {
	case kindEdge:
		v = marginal(r, saved[i], r.TEdgeRead)
		if p := r.EdgeProducer; p >= 0 {
			v += marginal(&regions[p], saved[p], r.TEdgeWrite)
		}
	case kindKV:
		v = marginal(r, saved[i], r.TKVRead)
	default:
		v = marginal(r, saved[i], r.TWeight)
	}
	if v <= 0 {
		return 0
	}
	if c.bytes > 0 {
		v /= float64(c.bytes)
	}
	return v
}

// greedy builds a density-ordered warm start: each candidate (weight
// pin, edge residency or KV-cache hold) is taken when its marginal time
// saving per GM byte is best and capacity allows. Savings saturate at
// each region's TMin, so marginal values are recomputed as items land.
//
// It runs on every search trial that reaches the simulator. Two
// structural optimizations over the reference implementation, both
// selection-order preserving (the frozen references in the tests keep
// that claim falsifiable, on fuzzed and on compiled-plan instances):
//
//   - Peak tracking: pinned weights charge every region uniformly, so
//     peak GM usage decomposes as pinnedTotal + max_k(resident_k +
//     BaseGM_k) and each placement test needs only the candidate's own
//     residency interval, not a full sweep.
//
//   - Indexed selection: a candidate's value reads the savings of at
//     most two regions — its own and, for an edge, its producer's — and
//     a placement changes exactly those. Candidates therefore sit in an
//     indexed max-heap keyed by their exact current density: after each
//     placement only the candidates of the touched regions (their
//     pin/edge/KV and the edges they produce) are re-scored in place,
//     and a candidate whose value reaches zero leaves at once (zero
//     never rises again: savings only grow). The top is always the true
//     maximum, equal densities resolve by enumeration order, so the
//     same candidates land in the same sequence as the reference's
//     O(candidates) re-scan, at O(log candidates) per touched candidate.
//
// The placement lands in pin, keep and hold: zeroed, one entry per region.
func greedy(regions []RegionCost, usable []bool, capacity int64, pin, keep, hold []bool) {
	n := len(regions)
	gs := greedyPool.Get().(*greedyScratch)
	defer greedyPool.Put(gs)
	saved := reset(&gs.saved, n)

	// Enumerate region by region — pin, edge, KV — which is the
	// tie-break order. Encoder workloads enumerate no KV candidates, so
	// their selection sequence matches the KV-less reference.
	cands := gs.cands[:0]
	first := reset(&gs.first, n+1)
	cptr := reset(&gs.cptr, n+1)
	for i := range regions {
		r := &regions[i]
		first[i] = int32(len(cands))
		if r.PinnableWeights && r.DWeight > 0 && r.TWeight > 0 {
			cands = append(cands, greedyCand{bytes: r.DWeight, region: int32(i), kind: kindPin})
		}
		if usable[i] && r.EdgeResidentBytes > 0 {
			cands = append(cands, greedyCand{bytes: r.EdgeResidentBytes, region: int32(i), kind: kindEdge})
			if p := r.EdgeProducer; p >= 0 {
				cptr[p]++
			}
		}
		if r.KVBytes > 0 && r.TKVRead > 0 {
			cands = append(cands, greedyCand{bytes: r.KVBytes, region: int32(i), kind: kindKV})
		}
	}
	first[n] = int32(len(cands))
	gs.cands = cands

	// Producer → edge-candidate index: a counting sort by producer.
	var total int32
	for p := 0; p < n; p++ {
		c := cptr[p]
		cptr[p] = total
		total += c
	}
	cptr[n] = total
	cons := reset(&gs.cons, int(total))
	for id := range cands {
		if c := &cands[id]; c.kind == kindEdge {
			if p := regions[c.region].EdgeProducer; p >= 0 {
				cons[cptr[p]] = int32(id)
				cptr[p]++
			}
		}
	}
	// The fill advanced each bucket's start to its end, the next
	// bucket's start: shift back by one bucket.
	copy(cptr[1:], cptr[:n])
	cptr[0] = 0

	// Worthless candidates never enter the heap.
	h := gs.heap[:0]
	for id := range cands {
		c := &cands[id]
		c.pos = -1
		if v := density(regions, saved, c); v > 0 {
			c.pos = int32(len(h))
			h = append(h, heapEntry{val: v, id: int32(id)})
		}
	}
	gs.heap = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		gs.down(i, h[i])
	}

	// rb[k] = BaseGM_k plus the edge tensors resident across region k;
	// residentPeak = max rb[k]. Peak GM usage for any assignment is
	// pinnedTotal + residentPeak, maintained incrementally.
	rb := reset(&gs.rb, n)
	var residentPeak, pinnedTotal int64
	for k := range regions {
		rb[k] = regions[k].BaseGM
		if rb[k] > residentPeak {
			residentPeak = rb[k]
		}
	}

	for len(gs.heap) > 0 {
		c := &cands[gs.heap[0].id]
		gs.remove(0)
		ci := int(c.region)
		r := &regions[ci]
		// Capacity test over the candidate's own footprint: an edge only
		// occupies its residency interval [producer, consumer]; a pin or
		// a hold charges every region.
		if c.kind == kindEdge {
			p := r.EdgeProducer
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
			saved[ci] += marginal(r, saved[ci], r.TEdgeRead)
			if p >= 0 {
				saved[p] += marginal(&regions[p], saved[p], r.TEdgeWrite)
				gs.touch(regions, p)
			}
			gs.touch(regions, ci)
			continue
		}
		if pinnedTotal+c.bytes+residentPeak > capacity {
			continue
		}
		pinnedTotal += c.bytes
		if c.kind == kindKV {
			hold[ci] = true
			saved[ci] += marginal(r, saved[ci], r.TKVRead)
		} else {
			pin[ci] = true
			saved[ci] += marginal(r, saved[ci], r.TWeight)
		}
		gs.touch(regions, ci)
	}
}

// reset grows *s to n and zeroes it.
func reset[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	clear(*s)
	return *s
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

// rowArena holds sparse constraint rows back to back in two flat
// arrays, sized for the whole problem before the first row is written:
// no entry is copied as the rows fill, and a problem with r rows costs
// no allocation per row. Arenas are pooled; ilp.Solve keeps nothing of
// the rows after it returns, so solveILP puts its arena back then.
type rowArena struct {
	idx   []int32
	val   []float64
	ends  []int
	start int       // first entry of the row under construction
	out   []ilp.Row // the rows, as rows() slices them
	tab   []int32   // buildILP's table of distinct capacity rows
}

var arenaPool = sync.Pool{New: func() any { return new(rowArena) }}

// reset empties the arena and makes room for rows rows and entries
// entries.
func (a *rowArena) reset(rows, entries int) {
	a.idx = slices.Grow(a.idx[:0], entries)
	a.val = slices.Grow(a.val[:0], entries)
	a.ends = slices.Grow(a.ends[:0], rows)
	a.start = 0
}

// table returns the arena's row table, cleared, with a power-of-two
// length above twice rows, so a probe soon meets an empty slot.
func (a *rowArena) table(rows int) []int32 {
	size := 2 << bits.Len(uint(rows))
	if cap(a.tab) < size {
		a.tab = make([]int32, size)
	}
	a.tab = a.tab[:size]
	clear(a.tab)
	return a.tab
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
	a.closeRow()
}

// closeRow closes a row written in ascending column order with no zero
// coefficient, as it stands.
func (a *rowArena) closeRow() {
	a.ends = append(a.ends, len(a.idx))
	a.start = len(a.idx)
}

// rows slices the arena into the problem's rows.
func (a *rowArena) rows() []ilp.Row {
	a.out = slices.Grow(a.out[:0], len(a.ends))
	lo := 0
	for _, hi := range a.ends {
		a.out = append(a.out, ilp.Row{Idx: a.idx[lo:hi:hi], Val: a.val[lo:hi:hi]})
		lo = hi
	}
	return a.out
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

// buildILP builds the reduced Figure 8 ILP in sparse form, its rows in
// a; ok is false when no placement decision exists.
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
func buildILP(regions []RegionCost, usable []bool, capacity int64, a *rowArena) (fusionILP, bool) {
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
	bin := make([]bool, nv)
	for i := 0; i < vars; i++ {
		bin[i] = true
	}
	for i := range regions {
		if ti := f.tIdx[i]; ti >= 0 {
			c[ti] = 1 // minimize Σ live T'
		}
	}

	// Capacity per region k: Σ_j W_j w_j + Σ_{edges spanning k} bytes·e_j
	// + Σ_j KV_j h_j ≤ C - B_k. Pins and held caches charge every row, an
	// edge charges its whole residency interval [producer, consumer], so
	// the rows differ only in which edges are live: sweep k with the live
	// edges kept in consumer (= column) order. Consecutive regions often
	// see the identical left-hand side; identical rows keep only their
	// tightest bound. The sweep only finds the distinct rows, their
	// right-hand sides and live edges; they are written below, once the
	// arena is sized.
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
	// The distinct rows are found in an open-addressing table, kept in
	// the arena: slots hold 1 + a row (0 is empty), probed from the hash
	// of the live edges until an empty slot or a row with the same ones.
	tab := a.table(n)
	mask := uint64(len(tab) - 1)
	var capB []float64
	var capLive []int32 // each capacity row's live edges, back to back
	var capEnds []int   // capacity row r's live edges end at capEnds[r]
	var live []int32    // consumers of the edges spanning k, ascending
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
		slot := hashLive(live) & mask
		r := -1
		for ; tab[slot] != 0; slot = (slot + 1) & mask {
			if q := int(tab[slot]) - 1; slices.Equal(capLive[liveStart(capEnds, q):capEnds[q]], live) {
				r = q
				break
			}
		}
		if r >= 0 {
			if rhs < capB[r] {
				capB[r] = rhs
			}
			continue
		}
		tab[slot] = int32(len(capB) + 1)
		capB = append(capB, rhs)
		capLive = append(capLive, live...)
		capEnds = append(capEnds, len(capLive))
	}

	// The arena holds every entry the rows below write: a T' row's own
	// variable, its region's binaries and the edges its region produces
	// (endRow may drop zeros from these), and a capacity row's pins,
	// live edges and holds.
	tRows, entries := 0, len(capB)*(len(pinIdx)+len(holdIdx))+len(capLive)
	for i := range regions {
		if f.tIdx[i] < 0 {
			continue
		}
		tRows++
		entries += 1 + int(cptr[i+1]-cptr[i])
		for _, v := range [...]int{f.wIdx[i], f.eIdx[i], f.hIdx[i]} {
			if v >= 0 {
				entries++
			}
		}
	}
	a.reset(tRows+len(capB), entries)
	b := make([]float64, 0, tRows+len(capB))

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

	// The capacity rows are written in ascending column order — pins,
	// then live edges by consumer, then holds — and carry no zero (pins
	// have DWeight > 0, holds KVBytes > 0, live edges resident bytes), so
	// they close as they stand.
	lo := 0
	for _, hi := range capEnds {
		a.idx = append(a.idx, pinIdx...)
		a.val = append(a.val, pinVal...)
		for _, j := range capLive[lo:hi] {
			a.idx = append(a.idx, int32(f.eIdx[j]))
			a.val = append(a.val, float64(regions[j].EdgeResidentBytes))
		}
		a.idx = append(a.idx, holdIdx...)
		a.val = append(a.val, holdVal...)
		a.closeRow()
		lo = hi
	}
	b = append(b, capB...)

	f.prob = ilp.Problem{C: c, A: a.rows(), B: b, Binary: bin}
	return f, true
}

// hashLive is the FNV-1a hash of a capacity row's live edges.
func hashLive(live []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, j := range live {
		h = (h ^ uint64(uint32(j))) * 1099511628211
	}
	return h
}

// liveStart is where capacity row r's live edges begin in capLive.
func liveStart(capEnds []int, r int) int {
	if r == 0 {
		return 0
	}
	return capEnds[r-1]
}

// exactRelGap is the relative gap at which the exact solve stops short
// of a proof. Where the root LP already certifies the greedy warm start
// this close, branching on used to re-prove the bound until the
// deadline without changing the answer (docs/PERFORMANCE.md, "What the
// 0.1% stop rule reaches").
const exactRelGap = 1e-3

// exactStallNodes is the stall limit at the default budget: the exact
// solve stops this many nodes after its incumbent last improved. It is
// 16% above the longest stall before an improvement in the measured
// corpus (ocr-rpn/tpu-v3: 14,139 nodes, then an improvement at node
// 14,450). Solves that never improve on the greedy warm start used to
// branch until the deadline (docs/PERFORMANCE.md, "What the stall limit
// reaches").
const exactStallNodes = 1 << 14

// DefaultMaxNodes is the exact solve's node budget when Options.MaxNodes
// is zero: four stall limits, 3.3 times the longest solve measured
// (docs/PERFORMANCE.md, "A node budget in place of the deadline").
const DefaultMaxNodes = 4 * exactStallNodes

// nodeLimits resolves Options.MaxNodes into the node budget and the
// stall limit: exactStallNodes, or a quarter of a larger budget.
func nodeLimits(maxNodes int) (total, stall int) {
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	return maxNodes, max(exactStallNodes, maxNodes/4)
}

// solveILP solves the reduced Figure 8 ILP with branch-and-bound, warm
// started from the greedy placement. It ends at the first of a proof, a
// certified exactRelGap, stall nodes without improvement, or total
// nodes. The assignment is valid only when the result is Feasible.
func solveILP(regions []RegionCost, usable []bool, capacity int64,
	warmPin, warmKeep, warmHold []bool, total, stall int) (Assignment, ilp.Result) {

	n := len(regions)
	if n == 0 {
		return Assignment{}, ilp.Result{}
	}
	a := arenaPool.Get().(*rowArena)
	defer arenaPool.Put(a)
	f, ok := buildILP(regions, usable, capacity, a)
	if !ok {
		return Assignment{}, ilp.Result{}
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
		MaxNodes:   total,
		RelGap:     exactRelGap,
		StallNodes: stall,
		WarmStart:  warm,
	})
	if err != nil || !res.Feasible {
		return Assignment{}, ilp.Result{}
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
	switch {
	case res.Optimal:
		asn.Method = "ilp-optimal"
	case res.WithinTol:
		asn.Method, asn.Gap = "ilp-within-tol", res.Gap
	default:
		asn.Gap = res.Gap
	}
	return asn, res
}
