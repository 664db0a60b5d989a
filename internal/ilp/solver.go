package ilp

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Problem is min C·x subject to A·x ≤ B, 0 ≤ x ≤ U, and x[i] ∈ {0,1} for
// every i in Binary. The constraint rows are sparse (DenseRows converts
// dense ones). Upper bounds default to 1 for binary variables and +inf
// for continuous ones when U is nil.
type Problem struct {
	C      []float64
	A      []Row
	B      []float64
	U      []float64
	Binary []bool
}

// Result reports the solve outcome.
type Result struct {
	X         []float64
	Objective float64
	// Feasible is false when no integer-feasible point was found.
	Feasible bool
	// Optimal is true when optimality was proven before the deadline.
	Optimal bool
	// WithinTol is true when the search stopped on Options.RelGap: the
	// incumbent is certified within that relative gap of the optimum
	// (Gap ≤ RelGap) but not proven optimal.
	WithinTol bool
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// ImprovedAt is the node at which the returned incumbent was found;
	// zero when it is the warm start.
	ImprovedAt int
	// BestBound is the proven lower bound on the optimal objective at
	// exit; equal to Objective when Optimal. The dense reference solver
	// tracks no global bound and reports -inf on early exit.
	BestBound float64
	// Gap is the relative optimality gap (Objective − BestBound) /
	// |Objective| (the absolute gap when Objective is zero): zero when
	// optimality was proven, at most RelGap on a tolerance stop, +inf
	// when no usable bound survives an early exit.
	Gap float64
}

// Options configures Solve. The sparse search ends at the first of a
// proof, a certified RelGap, StallNodes nodes without improvement, or
// the Deadline; on any but a proof the best incumbent is returned with
// Optimal=false, a valid BestBound and its Gap.
type Options struct {
	// Deadline bounds the solve; zero means no limit. On expiry the best
	// incumbent is returned with Optimal=false and the optimality gap
	// filled in (the SCIP-timeout contract from §6.1).
	Deadline time.Time
	// RelGap stops branch-and-bound once the incumbent is certified
	// within this relative gap of the best open bound (Result.WithinTol).
	// Zero proves optimality. The dense reference solver ignores it.
	RelGap float64
	// StallNodes stops branch-and-bound once that many nodes have passed
	// since the incumbent last improved (the warm start counts as node
	// 0). Counted in nodes, so the stop is the same on any host. Zero
	// means no limit. The dense reference solver ignores it.
	StallNodes int
	// MaxSimplexIters caps each LP solve (default 20000).
	MaxSimplexIters int
	// WarmStart optionally seeds the incumbent with a known integer-
	// feasible point (the fusion pass hands in its greedy solution, so
	// branch-and-bound starts with a bound instead of from scratch).
	WarmStart []float64
	// Dense routes the solve through the frozen dense-tableau reference
	// solver instead of the sparse revised-simplex core. Kept for
	// differential tests, benchmarks and as an escape hatch; the sparse
	// path also falls back to it on unrecoverable numerical failure.
	Dense bool
}

// Solve runs branch-and-bound with LP-relaxation bounds: best-first
// with depth-first plunging, dual-simplex warm starts from the parent
// basis, and pseudo-cost/most-fractional branching over the sparse
// revised-simplex core.
func Solve(p Problem, o Options) (Result, error) {
	if err := validate(p); err != nil {
		return Result{}, err
	}
	if o.Dense {
		return solveDense(p, o)
	}
	res, ok := solveSparse(p, o)
	if ok {
		return res, nil
	}
	// Unrecoverable numerical failure in the sparse path (singular
	// refactorization or a drifting pivot that a fresh LU cannot fix):
	// the dense tableau solver is slower but assumption-free. Any
	// incumbent the sparse search already found seeds the dense solve so
	// an improvement over the caller's warm start is never discarded.
	if res.Feasible {
		o.WarmStart = res.X
	}
	de, err := solveDense(p, o)
	if err != nil {
		return de, err
	}
	// The dense solver tracks no bound and counts its own nodes only;
	// what the sparse search had explored and proven when it failed
	// still holds. The dense tableau's absolute tolerances can also
	// claim an optimum it has not earned: once the sparse search has
	// proven a bound, the claim stands only if that bound certifies it
	// (to the 1e-9 the search prunes with). A failure in the root LP
	// proves no bound, and then the dense search — which, like every
	// hand-over, starts over from the root — is the only one there is.
	de.Nodes += res.Nodes
	if de.ImprovedAt > 0 {
		de.ImprovedAt += res.Nodes
	} else {
		de.ImprovedAt = res.ImprovedAt // the sparse incumbent it was seeded with
	}
	if de.Optimal && !math.IsInf(res.BestBound, -1) && res.BestBound < de.Objective-1e-9 {
		de.Optimal, de.BestBound = false, math.Inf(-1) // the sparse bound replaces it below
	}
	if !de.Optimal && res.BestBound > de.BestBound {
		de.BestBound = res.BestBound
		if de.Feasible {
			de.Gap = relGap(de.Objective, de.BestBound)
		}
	}
	return de, nil
}

// relGap is the relative optimality gap of an incumbent against a lower
// bound, clamped at zero. It is relative to |objective| at any scale —
// the fusion objective is ~1e-3 s, where a max(1, |objective|) floor
// read every gap as 0% — and absolute only when the objective is zero.
func relGap(objective, bound float64) float64 {
	scale := math.Abs(objective)
	if scale == 0 {
		scale = 1
	}
	return math.Max(0, (objective-bound)/scale)
}

// statePool recycles the revised-simplex working state (basis, sparse
// LU factors and eta file, pricing buffers) across solves; the parallel
// full-ILP reporting paths run many instances concurrently, and every
// buffer in it is O(rows + columns + nnz(LU)).
var statePool = sync.Pool{New: func() any { return new(lpState) }}

// testHook holds seams only _test.go files set (via export_test.go);
// production code leaves it zero.
var testHook struct {
	// problem observes every problem entering the sparse solver.
	problem func(Problem)
	// nodeLimit > 0 stops branch-and-bound once that many nodes have
	// been explored, as an expired deadline would; atNodeLimit then sees
	// the open frontier before it is folded into the result.
	nodeLimit   int
	atNodeLimit func(open *nodeHeap)
	// failNode > 0 makes that node's LP report a numerical failure, the
	// hand-over to the dense solver.
	failNode int
}

// bbNode is one open branch-and-bound subproblem: the parent whose
// optimum it warm-starts from, plus the one fixing that tells it apart.
// Nodes live by value in the heap, 40 bytes each.
type bbNode struct {
	// bound is the parent's LP objective: a valid lower bound on every
	// integer point under this node.
	bound float64
	// branchFrac is the branched variable's fractional part at the
	// parent optimum, for the pseudo-cost update.
	branchFrac float64
	// parent records the solved node this one branched off; nil only for
	// the root, which starts from the all-slack basis.
	parent *nodeRec
	seq    int32
	// depth is the number of fixings on the path from the root.
	depth int32
	// fix is this node's own fixing, var<<1|value; noFix at the root.
	fix int32
}

const noFix = -1

// unfix decodes a fixing.
func unfix(fix int32) (j int, v float64) { return int(fix >> 1), float64(fix & 1) }

// nodeRec is what a solved node that branched leaves behind for its
// subtree: its own fixing, and how its optimal basis and nonbasic
// at-upper flags differ from its parent's optimum (from the all-slack
// basis with no flag set, for the root). Both children and all their
// descendants share it, so an open node retains O(pivots) bytes where a
// full path + basis + bitset copy was O(depth + rows + columns).
//
// delta is one int32 stream: the node's fixing (as bbNode.fix), the
// count s of basis rows that changed, s (row, column) pairs, then one
// col<<1|flag entry per at-upper flag that changed.
type nodeRec struct {
	parent *nodeRec
	delta  []int32
}

// snapshot is the warm-start reference of a branch-and-bound run: the
// optimal basis and effective at-upper flags (nonbasic and at upper) of
// the most recently recorded or materialised node.
type snapshot struct {
	basis []int32  // len m
	up    []uint64 // bitset over n+m columns
	chain []*nodeRec
	buf   []int32
}

func (sn *snapshot) reset(m, n int) {
	growI32(&sn.basis, m)
	words := (n + m + 63) / 64
	if cap(sn.up) < words {
		sn.up = make([]uint64, words)
	}
	sn.up = sn.up[:words]
	sn.slack(n)
}

// slack sets the reference every root delta is taken against.
func (sn *snapshot) slack(n int) {
	for i := range sn.basis {
		sn.basis[i] = int32(n + i)
	}
	for w := range sn.up {
		sn.up[w] = 0
	}
}

// record diffs the state's current basis and flags against the
// reference, advances the reference to them, and returns the delta as a
// node record under parent. fix is the solved node's own fixing.
func (sn *snapshot) record(parent *nodeRec, fix int32, s *lpState) *nodeRec {
	d := append(sn.buf[:0], fix, 0)
	for i, j := range s.basis {
		if sn.basis[i] != j {
			d = append(d, int32(i), j)
			sn.basis[i] = j
		}
	}
	d[1] = int32(len(d)-2) / 2
	for j := 0; j < s.N; j++ {
		word, bit := &sn.up[j>>6], uint64(1)<<(j&63)
		if up := s.pos[j] < 0 && s.atUp[j]; up != (*word&bit != 0) {
			*word ^= bit
			e := int32(j) << 1
			if up {
				e |= 1
			}
			d = append(d, e)
		}
	}
	sn.buf = d
	return &nodeRec{parent: parent, delta: append([]int32(nil), d...)}
}

// materialise rebuilds the reference as rec's optimum by replaying the
// deltas from the root down (so the nearest record wins); nil is the
// all-slack basis.
func (sn *snapshot) materialise(rec *nodeRec, n int) {
	sn.slack(n)
	chain := sn.chain[:0]
	for r := rec; r != nil; r = r.parent {
		chain = append(chain, r)
	}
	for k := len(chain) - 1; k >= 0; k-- {
		d := chain[k].delta
		flags := d[2+2*d[1]:]
		for p := d[2 : 2+2*d[1]]; len(p) > 0; p = p[2:] {
			sn.basis[p[0]] = p[1]
		}
		for _, e := range flags {
			word, bit := &sn.up[e>>7], uint64(1)<<(e>>1&63)
			if e&1 != 0 {
				*word |= bit
			} else {
				*word &^= bit
			}
		}
		chain[k] = nil
	}
	sn.chain = chain[:0]
}

// nodeHeap is a best-first min-heap on (bound, depth desc, seq). The
// depth tie-break matters on flat bound landscapes (many fusion
// instances have near-identical LP bounds across subtrees): among
// equal bounds the deepest — most recently branched — node wins, so
// the search degrades to depth-first plunging instead of a
// breadth-first frontier explosion, while genuinely better bounds
// still jump the queue. seq keeps the order deterministic.
type nodeHeap []bbNode

func (h nodeHeap) less(a, b int) bool {
	if h[a].bound != h[b].bound {
		return h[a].bound < h[b].bound
	}
	if da, db := h[a].depth, h[b].depth; da != db {
		return da > db
	}
	return h[a].seq > h[b].seq
}

func (h *nodeHeap) push(nd bbNode) {
	*h = append(*h, nd)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			return
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *nodeHeap) pop() bbNode {
	old := *h
	nd := old[0]
	last := len(old) - 1
	old[0] = old[last]
	old[last] = bbNode{}
	*h = old[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < last && h.less(l, best) {
			best = l
		}
		if r < last && h.less(r, best) {
			best = r
		}
		if best == i {
			return nd
		}
		(*h)[i], (*h)[best] = (*h)[best], (*h)[i]
		i = best
	}
}

// solveSparse is the sparse branch-and-bound; ok=false requests the
// dense fallback.
func solveSparse(p Problem, o Options) (Result, bool) {
	if testHook.problem != nil {
		testHook.problem(p)
	}
	n := len(p.C)
	maxIter := o.MaxSimplexIters
	if maxIter == 0 {
		maxIter = 20000
	}
	ls := statePool.Get().(*lpState)
	defer statePool.Put(ls)
	ls.init(newCSC(p.A, n), p.C, p.B, p.U, p.Binary)
	ref := &ls.ref
	ref.reset(ls.m, ls.n)

	res := Result{Feasible: false, Objective: math.Inf(1), BestBound: math.Inf(-1)}
	if o.WarmStart != nil && integerFeasible(p, o.WarmStart) {
		res.Feasible = true
		res.Objective = dot(p.C, o.WarmStart)
		res.X = append([]float64(nil), o.WarmStart...)
	}
	expired := func() bool {
		//fast:allow nondetsource branch-and-bound deadline seam: time only truncates the search, never changes a returned incumbent's value
		return !o.Deadline.IsZero() && time.Now().After(o.Deadline)
	}

	// Pseudo-costs: mean objective degradation per unit of fraction
	// rounded away, kept per binary and per direction.
	var pcDn, pcUp []float64
	var cntDn, cntUp []int32
	if p.Binary != nil {
		pcDn = make([]float64, n)
		pcUp = make([]float64, n)
		cntDn = make([]int32, n)
		cntUp = make([]int32, n)
	}

	var heap nodeHeap
	var seq int32
	heap.push(bbNode{bound: math.Inf(-1), fix: noFix})
	// dive, when diving, is a child whose bounds and warm basis are
	// already installed in ls (depth-first plunging): it skips the pop +
	// reinstall entirely, so consecutive nodes share LU factors.
	var dive bbNode
	diving := false
	provedOptimal, failed := true, false
	// openBound folds the bounds of nodes abandoned on early exit so
	// BestBound stays valid.
	openBound := math.Inf(1)

	for diving || len(heap) > 0 {
		if res.Feasible && len(heap) > 0 && heap[0].bound < res.Objective-1e-9 {
			// The heap is ordered by bound, so its root bounds every open
			// node; a dive child's sibling waits in the heap with the same
			// bound. Once every open node would be pruned, the loop drains
			// them and proves optimality instead, so neither stop applies.
			if o.RelGap > 0 && relGap(res.Objective, heap[0].bound) <= o.RelGap {
				provedOptimal, res.WithinTol = false, true
				break
			}
			if o.StallNodes > 0 && res.Nodes-res.ImprovedAt >= o.StallNodes {
				provedOptimal = false
				break
			}
		}
		if expired() {
			provedOptimal = false
			break
		}
		if lim := testHook.nodeLimit; lim > 0 && res.Nodes >= lim {
			provedOptimal = false
			if testHook.atNodeLimit != nil {
				testHook.atNodeLimit(&heap)
			}
			break
		}
		var nd bbNode
		if diving {
			nd, diving = dive, false
		} else {
			nd = heap.pop()
			if res.Feasible && nd.bound >= res.Objective-1e-9 {
				continue // cannot beat the incumbent
			}
			// Reinstall this subproblem: base bounds + path fixings,
			// parent optimum (or the all-slack basis when the snapshot
			// fails to factorize). The reference keeps the parent optimum
			// either way, so the delta this node records stays relative
			// to its parent.
			ls.resetBounds()
			for fix, r := nd.fix, nd.parent; fix != noFix; fix, r = r.delta[0], r.parent {
				ls.fixBinary(unfix(fix))
			}
			ref.materialise(nd.parent, ls.n)
			if nd.parent == nil || !ls.installBasis(ref.basis, ref.up) {
				ls.installSlackBasis()
			}
			ls.computeXB()
			ls.computeDuals()
		}
		res.Nodes++

		status := ls.dualSimplex(maxIter, o.Deadline)
		if res.Nodes == testHook.failNode {
			status = lpFail
		}
		switch status {
		case lpDeadline, lpFail:
			// Abandon the search: on a deadline the incumbent (if any) is
			// the answer, on a numerical failure the dense solver takes
			// over. Either way the bound over every subproblem still open
			// — this one included — stays valid.
			failed = status == lpFail
			provedOptimal = false
			if nd.bound < openBound {
				openBound = nd.bound
			}
			goto done
		case lpInfeasible:
			continue
		}
		{
			obj := ls.extract()
			if ls.hitsArtificialBound() {
				// The relaxation is unbounded below through a continuous
				// direction; no finite certificate exists down this path.
				provedOptimal = false
				continue
			}
			if nd.fix != noFix && pcDn != nil {
				// Pseudo-cost update: how much the LP bound degraded per
				// unit of fraction rounded away at the parent's branching
				// (nd.bound is the parent's objective).
				if deg := obj - nd.bound; deg > 0 && !math.IsInf(nd.bound, -1) {
					if j, up := unfix(nd.fix); up == 1 {
						f := 1 - nd.branchFrac
						pcUp[j] += (deg/f - pcUp[j]) / float64(cntUp[j]+1)
						cntUp[j]++
					} else {
						f := nd.branchFrac
						pcDn[j] += (deg/f - pcDn[j]) / float64(cntDn[j]+1)
						cntDn[j]++
					}
				}
			}
			if res.Feasible && obj >= res.Objective-1e-9 {
				continue // bound: cannot beat incumbent
			}
			branch := selectBranch(ls.x, p.Binary, pcDn, pcUp, cntDn, cntUp)
			if branch < 0 {
				// Integer feasible (round off tiny fractional noise).
				x := append([]float64(nil), ls.x[:n]...)
				for i := range x {
					if p.Binary != nil && p.Binary[i] {
						x[i] = math.Round(x[i])
					}
				}
				intObj := dot(p.C, x)
				if !res.Feasible || intObj < res.Objective {
					res.Feasible = true
					res.Objective = intObj
					res.X = x
					res.ImprovedAt = res.Nodes
				}
				continue
			}
			frac := ls.x[branch] - math.Floor(ls.x[branch])
			near := math.Round(ls.x[branch])
			far := 1 - near
			seq++
			child := bbNode{
				bound:      obj,
				branchFrac: frac,
				parent:     ref.record(nd.parent, nd.fix, ls),
				seq:        seq,
				depth:      nd.depth + 1,
				fix:        int32(branch)<<1 | int32(far),
			}
			heap.push(child)
			// Plunge into the nearer rounding with the current basis and
			// factors still warm: only the branched variable's bounds
			// change, and the parent optimum stays dual feasible.
			ls.fixBinary(branch, near)
			child.fix ^= 1
			dive, diving = child, true
		}
	}
done:
	if diving && dive.bound < openBound {
		openBound = dive.bound
	}
	for i := range heap {
		if heap[i].bound < openBound {
			openBound = heap[i].bound
		}
	}
	res.Optimal = res.Feasible && provedOptimal && len(heap) == 0 && !diving
	if res.Optimal {
		res.BestBound = res.Objective
	} else if !math.IsInf(openBound, 1) {
		res.BestBound = openBound
		if res.Feasible {
			res.Gap = relGap(res.Objective, res.BestBound)
		}
	} else if res.Feasible && !provedOptimal {
		res.Gap = math.Inf(1)
	}
	return res, !failed
}

// selectBranch picks the branching variable among fractional binaries:
// pseudo-cost product scoring once both directions of every fractional
// candidate have been observed, most-fractional until then (which is
// also what initializes the pseudo-costs).
func selectBranch(x []float64, binary []bool, pcDn, pcUp []float64, cntDn, cntUp []int32) int {
	const fracEps = 1e-6
	branch := -1
	worst := fracEps
	reliable := true
	for i := range x {
		if binary == nil || !binary[i] {
			continue
		}
		f := math.Abs(x[i] - math.Round(x[i]))
		if f <= fracEps {
			continue
		}
		if cntDn[i] == 0 || cntUp[i] == 0 {
			reliable = false
		}
		if f > worst {
			worst, branch = f, i
		}
	}
	if branch < 0 || !reliable {
		return branch
	}
	best := -1.0
	for i := range x {
		if binary == nil || !binary[i] {
			continue
		}
		fd := x[i] - math.Floor(x[i])
		if fd <= fracEps || fd >= 1-fracEps {
			continue
		}
		score := math.Max(fd*pcDn[i], 1e-12) * math.Max((1-fd)*pcUp[i], 1e-12)
		if score > best {
			best, branch = score, i
		}
	}
	return branch
}

// resetBounds restores every structural column's base bounds (erasing
// branch-and-bound fixings).
func (s *lpState) resetBounds() {
	for j := 0; j < s.n; j++ {
		s.lo[j] = 0
		s.up[j] = s.baseUp[j]
	}
}

// fixBinary pins structural column j to v.
func (s *lpState) fixBinary(j int, v float64) {
	s.lo[j] = v
	s.up[j] = v
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// integerFeasible checks a candidate point against all constraints and
// integrality.
func integerFeasible(p Problem, x []float64) bool {
	if len(x) != len(p.C) {
		return false
	}
	for i, v := range x {
		if v < -feasEps {
			return false
		}
		if p.Binary != nil && p.Binary[i] && math.Abs(v-math.Round(v)) > feasEps {
			return false
		}
		if p.U != nil && v > p.U[i]+feasEps {
			return false
		}
	}
	for r, row := range p.A {
		if row.dot(x) > p.B[r]+feasEps*(1+math.Abs(p.B[r])) {
			return false
		}
	}
	return true
}

// BruteForce enumerates all binary assignments (continuous vars solved by
// LP for each) — for testing only; exponential.
func BruteForce(p Problem) Result {
	n := len(p.C)
	var binIdx []int
	for i := 0; i < n; i++ {
		if p.Binary != nil && p.Binary[i] {
			binIdx = append(binIdx, i)
		}
	}
	best := Result{Objective: math.Inf(1)}
	dense := p.dense()
	total := 1 << len(binIdx)
	for mask := 0; mask < total; mask++ {
		// Fix binaries, solve the continuous remainder by LP.
		a := append([][]float64(nil), dense...)
		b := append([]float64(nil), p.B...)
		for k, v := range binIdx {
			val := float64((mask >> k) & 1)
			hi := make([]float64, n)
			lo := make([]float64, n)
			hi[v], lo[v] = 1, -1
			a = append(a, hi, lo)
			b = append(b, val, -val)
		}
		// Continuous upper bounds.
		for i := 0; i < n; i++ {
			if p.U != nil && !math.IsInf(p.U[i], 1) {
				row := make([]float64, n)
				row[i] = 1
				a = append(a, row)
				b = append(b, p.U[i])
			}
		}
		lp := simplex(p.C, a, b, 20000)
		if lp.feasible && !lp.unbounded && lp.objective < best.Objective {
			best = Result{X: lp.x, Objective: lp.objective, Feasible: true, Optimal: true}
		}
	}
	return best
}

// GreedyKnapsack solves max Σ v_i x_i s.t. Σ w_i x_i ≤ cap, x binary, by
// value-density with a final sweep; a helper used for warm starts.
// Returns the chosen index set.
func GreedyKnapsack(values, weights []float64, capacity float64) []int {
	type item struct {
		i       int
		density float64
	}
	items := make([]item, 0, len(values))
	for i := range values {
		if values[i] <= 0 {
			continue
		}
		w := weights[i]
		d := math.Inf(1)
		if w > 0 {
			d = values[i] / w
		}
		items = append(items, item{i, d})
	}
	sort.Slice(items, func(a, b int) bool { return items[a].density > items[b].density })
	var chosen []int
	var used float64
	for _, it := range items {
		if used+weights[it.i] <= capacity {
			used += weights[it.i]
			chosen = append(chosen, it.i)
		}
	}
	sort.Ints(chosen)
	return chosen
}
