// Package ilp is a small exact solver for the 0/1 mixed-integer
// programs the FAST fusion pass poses, standing in for SCIP v7: binary
// columns on [0, 1] and continuous columns on [0, +inf) at a
// non-negative cost, minimized under A·x ≤ b (see Problem). Solve runs
// best-first branch-and-bound over a sparse bounded-variable dual
// simplex (revised.go) under the operational contract the paper
// configures SCIP with: a node budget, after which the best incumbent
// found so far is returned (§6.1: "if an optimal solution is not found
// in that time the solver returns the best incumbent solution"). The
// frozen dense two-phase tableau solver it replaced stays in the tests
// (dense_test.go, simplex_test.go) as the reference oracle.
package ilp

import (
	"math"
	"math/bits"
	"slices"
	"sync"
)

// Problem is min C·x subject to A·x ≤ B and x ≥ 0, with x[i] ∈ {0,1}
// for every i in Binary and every other column continuous on [0, +inf)
// at a non-negative cost. That is the class the fusion pass poses
// (binary pin/keep/hold choices, shifted times T' at cost 1), and every
// LP relaxation in it is bounded below; Solve rejects a continuous
// column with a negative cost. The constraint rows are sparse.
type Problem struct {
	C      []float64
	A      []Row
	B      []float64
	Binary []bool
}

// Result reports the solve outcome.
type Result struct {
	X         []float64
	Objective float64
	// Feasible is false when no integer-feasible point was found.
	Feasible bool
	// Optimal is true when optimality was proven.
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
	// exit: equal to Objective when Optimal, otherwise the least bound
	// of the nodes left open, a node whose LP failed included (-inf when
	// that is the root).
	BestBound float64
	// Gap is the relative optimality gap (Objective − BestBound) /
	// |Objective| (the absolute gap when Objective is zero): zero when
	// optimality was proven, at most RelGap on a tolerance stop, +inf
	// when no usable bound survives an early exit.
	Gap float64
}

// maxSimplexIters caps each LP solve, and again its retry from the
// slack basis; running into it counts as a numerical failure.
const maxSimplexIters = 20000

// Options configures Solve. The search ends at the first of a proof, a
// certified RelGap, StallNodes nodes without improvement, MaxNodes
// nodes, or a node LP that fails numerically twice: once as solved and
// once re-solved from the slack basis. On any but a proof the best
// incumbent is returned with Optimal=false, a valid BestBound and its Gap.
type Options struct {
	// MaxNodes bounds the nodes explored; zero means no limit. It is the
	// SCIP-timeout contract from §6.1, counted: the best incumbent is
	// returned with Optimal=false and the optimality gap filled in.
	MaxNodes int
	// RelGap stops branch-and-bound once the incumbent is certified
	// within this relative gap of the best open bound (Result.WithinTol).
	// Zero proves optimality.
	RelGap float64
	// StallNodes stops branch-and-bound once that many nodes have passed
	// since the incumbent last improved (the warm start counts as node
	// 0). Counted in nodes, so the stop is the same on any host. Zero
	// means no limit.
	StallNodes int
	// WarmStart optionally seeds the incumbent with a known integer-
	// feasible point (the fusion pass hands in its greedy solution, so
	// branch-and-bound starts with a bound instead of from scratch).
	WarmStart []float64
}

// Solve runs branch-and-bound with LP-relaxation bounds: best-first
// with depth-first plunging, dual-simplex warm starts from the parent
// basis, and pseudo-cost/most-fractional branching over the sparse
// revised-simplex core.
//
// Solve reads p and o.WarmStart only while it runs. It writes to
// neither, and its Result shares no memory with them, so the caller may
// reuse the arrays behind p.A as soon as Solve returns.
func Solve(p Problem, o Options) (Result, error) {
	if err := validate(p); err != nil {
		return Result{}, err
	}
	ls := statePool.Get().(*lpState)
	defer statePool.Put(ls)
	res := solveOn(ls, p, o)
	return res, nil
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
	// problem observes every problem entering the solver, with its warm
	// start.
	problem func(p Problem, warm []float64)
	// atMaxNodes sees the open frontier of a search stopped at
	// Options.MaxNodes before it is folded into the result.
	atMaxNodes func(open *nodeHeap)
	// failNode > 0 makes that node's LP report a numerical failure,
	// which the retry from the slack basis then mends; with failRetry
	// the retry fails too.
	failNode  int
	failRetry bool
	// failed sees every node LP that failed, and whether its retry
	// mended it.
	failed func(recovered bool)
	// pivot sees each dual simplex pivot before it is applied: leaving
	// row r, pivot row, entering column (s.w, non-zero only at pat).
	pivot func(s *lpState, r int, pat []int32)
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
	grow(&sn.basis, m)
	grow(&sn.up, (n+m+63)/64)
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
// node record under parent. fix is the solved node's own fixing. Only
// the rows and columns changed since the reference last matched the
// state can differ, so only those are compared, in ascending order;
// after an all-slack install that is all of them.
func (sn *snapshot) record(parent *nodeRec, fix int32, s *lpState) *nodeRec {
	slices.Sort(s.dirtyRows)
	slices.Sort(s.dirtyCols)
	d := append(sn.buf[:0], fix, 0)
	for _, i := range s.dirtyRows {
		if j := s.basis[i]; sn.basis[i] != j {
			d = append(d, i, j)
			sn.basis[i] = j
		}
	}
	d[1] = int32(len(d)-2) / 2
	for _, j := range s.dirtyCols {
		word, bit := &sn.up[j>>6], uint64(1)<<(j&63)
		if up := s.pos[j] < 0 && s.isUp(int(j)); up != (*word&bit != 0) {
			*word ^= bit
			e := int32(j) << 1
			if up {
				e |= 1
			}
			d = append(d, e)
		}
	}
	s.markClean()
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

// solveOn runs the sparse branch-and-bound on ls, whatever problem it
// held before, and releases p's rows before it returns.
func solveOn(ls *lpState, p Problem, o Options) Result {
	if testHook.problem != nil {
		testHook.problem(p, o.WarmStart)
	}
	n := len(p.C)
	ls.init(p)
	defer ls.release()
	ref := &ls.ref
	ref.reset(ls.m, ls.n)

	res := Result{Feasible: false, Objective: math.Inf(1), BestBound: math.Inf(-1)}
	if o.WarmStart != nil && integerFeasible(p, o.WarmStart) {
		res.Feasible = true
		res.Objective = dot(p.C, o.WarmStart)
		res.X = append([]float64(nil), o.WarmStart...)
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
	provedOptimal := true
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
		if o.MaxNodes > 0 && res.Nodes >= o.MaxNodes {
			provedOptimal = false
			if testHook.atMaxNodes != nil {
				testHook.atMaxNodes(&heap)
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
			if nd.parent == nil || !ls.installBasis() {
				ls.installSlackBasis()
			}
			ls.computeXB()
			ls.computeDuals()
		}
		res.Nodes++

		status := ls.dualSimplex(maxSimplexIters)
		if res.Nodes == testHook.failNode {
			status = lpFail
		}
		if status == lpFail {
			status = ls.resolve(maxSimplexIters)
			if res.Nodes == testHook.failNode && testHook.failRetry {
				status = lpFail
			}
			if testHook.failed != nil {
				testHook.failed(status != lpFail)
			}
		}
		switch status {
		case lpFail:
			// Abandon the search, on a numerical failure the retry could
			// not mend as at MaxNodes: the incumbent (if any) is the
			// answer, and the bound over every subproblem still open —
			// this one included — stays valid.
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
			branch := ls.selectBranch(pcDn, pcUp, cntDn, cntUp)
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
	return res
}

// selectBranch picks the branching variable among the fractional
// binaries of s.x: pseudo-cost product scoring once both directions of
// every fractional candidate have been observed, most-fractional until
// then (which is also what initializes the pseudo-costs). A nonbasic
// binary sits on 0 or 1, so only the basic ones are scanned, in
// ascending order.
func (s *lpState) selectBranch(pcDn, pcUp []float64, cntDn, cntUp []int32) int {
	const fracEps = 1e-6
	cands := s.cands[:0]
	for w, bin := range s.branchable {
		for word := bin & s.basic[w]; word != 0; word &= word - 1 {
			cands = append(cands, int32(w<<6|bits.TrailingZeros64(word)))
		}
	}
	s.cands = cands
	x := s.x
	branch := -1
	worst := fracEps
	reliable := true
	for _, i := range cands {
		f := math.Abs(x[i] - math.Round(x[i]))
		if f <= fracEps {
			continue
		}
		if cntDn[i] == 0 || cntUp[i] == 0 {
			reliable = false
		}
		if f > worst {
			worst, branch = f, int(i)
		}
	}
	if branch < 0 || !reliable {
		return branch
	}
	best := -1.0
	for _, i := range cands {
		fd := x[i] - math.Floor(x[i])
		if fd <= fracEps || fd >= 1-fracEps {
			continue
		}
		score := math.Max(fd*pcDn[i], 1e-12) * math.Max((1-fd)*pcUp[i], 1e-12)
		if score > best {
			best, branch = score, int(i)
		}
	}
	return branch
}

// resetBounds restores the [0, 1] bounds of every binary fixBinary
// pinned (erasing branch-and-bound fixings).
func (s *lpState) resetBounds() {
	for _, j := range s.fixed {
		s.setBounds(int(j), 0, 1)
	}
	s.fixed = s.fixed[:0]
}

// fixBinary pins structural column j to v.
func (s *lpState) fixBinary(j int, v float64) {
	s.setBounds(j, v, v)
	s.fixed = append(s.fixed, int32(j))
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
		if p.Binary != nil && p.Binary[i] && (math.Abs(v-math.Round(v)) > feasEps || v > 1+feasEps) {
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
