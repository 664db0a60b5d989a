package ilp

import (
	"math"
	"math/bits"
)

// Bounded-variable dual simplex over the sparse revised representation.
//
// Variables carry their bounds natively (0 ≤ x ≤ 1 for binaries, 0 ≤ x
// for continuous columns and slacks), so binary upper bounds and
// branch-and-bound fixings are bound-array writes instead of appended
// rows. The dual simplex is the natural engine for this solver's two
// entry points:
//
//   - the root LP starts from the all-slack basis, which is dual
//     feasible: a continuous column never costs less than zero (see
//     Problem);
//   - a branch-and-bound child tightens one variable's bounds, which
//     preserves the parent basis's dual feasibility exactly — the
//     child re-solve is a handful of dual pivots from the parent
//     optimum rather than a from-scratch two-phase solve.
//
// Anti-cycling: after degenLimit consecutive degenerate pivots the
// solve switches to Bland's rule (smallest-index leaving and entering
// choices), which guarantees termination on the degenerate instances
// the tests construct.

// degenLimit is the consecutive-degenerate-pivot count that trips
// Bland's rule. A variable so the anti-cycling tests can force Bland
// mode from the first pivot and run whole solves under it.
var degenLimit = 40

type lpStatus int

const (
	lpOptimal lpStatus = iota
	lpInfeasible
	lpFail
)

// lpState is the mutable revised-simplex state for one Solve call. It
// is pooled: every slice is resized in place by init.
type lpState struct {
	c csc
	m int // constraint rows
	n int // structural columns
	N int // n + m

	b    []float64 // row rhs
	cost []float64 // len N; slack costs zero
	lo   []float64 // len N current bounds
	up   []float64
	// loTol and upTol are lo and up widened by their feasibility
	// tolerance, kept with the bounds for the leaving-row scan.
	loTol, upTol []float64
	fixed        []int32 // binaries fixBinary pinned since resetBounds

	basis []int32  // len m
	pos   []int32  // len N: basis row, or -1
	atUp  []uint64 // bitset over N: nonbasic at upper bound (stale on basic columns)

	// Bitsets over the structural columns: the basic ones, the binary
	// ones and the columns with a non-zero lower bound. selectBranch
	// scans binary ∩ basic into cands.
	basic, branchable, loNZ []uint64
	cands                   []int32

	// Changes since the warm-start reference last matched the state:
	// the basis rows and the columns whose basic or at-upper status a
	// pivot or an install touched, each listed once (see record).
	dirtyRows, dirtyCols []int32
	rowDirty, colDirty   []bool

	xB     []float64 // len m: basic values
	infeas []uint64  // rows whose basic value is outside loTol..upTol
	d      []float64 // len N: reduced costs

	f factor
	// ref is branch-and-bound's warm-start reference (see snapshot).
	ref snapshot

	// scratch. rho is zero outside rhoNZ, the last ρ's non-zero rows, w
	// outside a pivot, and x outside xCols, the columns extract wrote.
	rho, w, alpha, x []float64
	xCols            []int32
	// The pivot row: alpha is zero outside rowCols, the columns the
	// last row built touched (rowMark marks the structural ones while it
	// is built); touched lists its nonbasic non-zeros in ascending order.
	rowCols, rhoNZ, touched []int32
	rowMark                 []uint64

	bland bool
	// safe marks a retry after a numerical failure (see resolve): the
	// ratio test then prefers the larger pivots.
	safe  bool
	degen int
	iters int // simplex iterations across the whole Solve
}

// init sizes the state for p's m rows and n structural columns and
// loads its matrix, costs, bounds and rhs. Bound arrays hold the *base*
// problem bounds; branch-and-bound overlays fixings on top. The state
// reads p.A until release.
func (s *lpState) init(p Problem) {
	s.c.load(p.A, len(p.C))
	s.m = s.c.m
	s.n = s.c.n
	s.N = s.n + s.m
	grow(&s.b, s.m)
	copy(s.b, p.B)
	grow(&s.cost, s.N)
	s.lo, s.up = grow(&s.lo, s.N), grow(&s.up, s.N)
	s.loTol, s.upTol = grow(&s.loTol, s.N), grow(&s.upTol, s.N)
	clear(grow(&s.infeas, (s.m+63)/64))
	grow(&s.xB, s.m)
	grow(&s.d, s.N)
	clear(grow(&s.rho, s.m))
	clear(grow(&s.w, s.m))
	clear(grow(&s.alpha, s.N))
	clear(grow(&s.x, s.n))
	grow(&s.atUp, (s.N+63)/64)
	clear(grow(&s.rowDirty, s.m))
	clear(grow(&s.colDirty, s.N))
	grow(&s.basis, s.m)
	for j := range grow(&s.pos, s.N) {
		s.pos[j] = -1
	}
	words := (s.n + 63) / 64
	grow(&s.basic, words)
	clear(grow(&s.branchable, words))
	clear(grow(&s.loNZ, words))
	clear(grow(&s.rowMark, words))
	s.rowCols, s.rhoNZ, s.xCols = grow(&s.rowCols, s.N)[:0], grow(&s.rhoNZ, s.m)[:0], grow(&s.xCols, s.n)[:0]
	s.dirtyRows, s.dirtyCols = grow(&s.dirtyRows, s.m)[:0], grow(&s.dirtyCols, s.N)[:0]
	s.fixed = s.fixed[:0]

	for j := 0; j < s.N; j++ {
		if j < s.n {
			s.cost[j] = p.C[j]
			if p.Binary != nil && p.Binary[j] {
				s.setBounds(j, 0, 1)
				s.branchable[j>>6] |= 1 << (j & 63)
			} else {
				s.setBounds(j, 0, math.Inf(1))
			}
		} else {
			s.cost[j] = 0
			s.setBounds(j, 0, math.Inf(1))
		}
	}
	s.bland = false
	s.degen = 0
	s.iters = 0
}

// release drops the state's reference to the caller's rows, so a state
// back in statePool keeps nothing of a finished problem alive.
func (s *lpState) release() { s.c.rows = nil }

// setBounds sets column j's bounds and their widened copies.
func (s *lpState) setBounds(j int, lo, up float64) {
	s.lo[j], s.up[j] = lo, up
	s.loTol[j], s.upTol[j] = lo-feasTolFor(lo), up+feasTolFor(up)
	if p := s.pos[j]; p >= 0 {
		s.checkRow(int(p))
	}
	if j < s.n {
		setBit(s.loNZ, j, lo != 0)
	}
}

// checkRow marks in infeas whether basis row i violates its bounds.
func (s *lpState) checkRow(i int) {
	j, v := s.basis[i], s.xB[i]
	setBit(s.infeas, i, v < s.loTol[j] || v > s.upTol[j])
}

// isUp reports column j's at-upper flag.
func (s *lpState) isUp(j int) bool { return s.atUp[j>>6]&(1<<(j&63)) != 0 }

// setBit sets or clears bit j of set.
func setBit(set []uint64, j int, on bool) {
	set[j>>6] &^= 1 << (j & 63)
	if on {
		set[j>>6] |= 1 << (j & 63)
	}
}

// val returns nonbasic variable j's current value.
func (s *lpState) val(j int) float64 {
	if s.isUp(j) {
		return s.up[j]
	}
	return s.lo[j]
}

// installSlackBasis resets to the all-slack basis with every structural
// column at its lower bound, apart from the unfixed negative-cost
// binaries, which start at 1. Always factorizable.
func (s *lpState) installSlackBasis() {
	s.slackBasis()
	if !s.f.factorize(&s.c, s.basis) {
		panic("ilp: slack basis must factorize")
	}
}

// slackBasis writes the all-slack basis and its nonbasic bound flags.
// The reference may be any node's optimum, so every row and column is
// marked changed.
func (s *lpState) slackBasis() {
	clear(s.atUp)
	for j := 0; j < s.n; j++ {
		s.pos[j] = -1
		setBit(s.atUp, j, s.cost[j] < 0 && s.lo[j] != s.up[j])
	}
	for i := 0; i < s.m; i++ {
		j := s.n + i
		s.basis[i] = int32(j)
		s.pos[j] = int32(i)
	}
	clear(s.basic)
	for i := 0; i < s.m; i++ {
		s.markRow(i)
	}
	for j := 0; j < s.N; j++ {
		s.markCol(j)
	}
}

// markRow and markCol note a basis row or a column changed since the
// reference last matched the state.
func (s *lpState) markRow(i int) {
	if !s.rowDirty[i] {
		s.rowDirty[i] = true
		s.dirtyRows = append(s.dirtyRows, int32(i))
	}
}

func (s *lpState) markCol(j int) {
	if !s.colDirty[j] {
		s.colDirty[j] = true
		s.dirtyCols = append(s.dirtyCols, int32(j))
	}
}

// markClean empties the change lists: the reference matches the state.
func (s *lpState) markClean() {
	for _, i := range s.dirtyRows {
		s.rowDirty[i] = false
	}
	for _, j := range s.dirtyCols {
		s.colDirty[j] = false
	}
	s.dirtyRows, s.dirtyCols = s.dirtyRows[:0], s.dirtyCols[:0]
}

// pivot makes column q basic in row r; the column it replaces leaves
// nonbasic, at its upper bound when leaveUp.
func (s *lpState) pivot(r, q int, leaveUp bool) {
	jr := int(s.basis[r])
	s.basis[r] = int32(q)
	s.pos[q] = int32(r)
	s.pos[jr] = -1
	setBit(s.atUp, jr, leaveUp)
	s.checkRow(r)
	if q < s.n {
		s.basic[q>>6] |= 1 << (q & 63)
	}
	if jr < s.n {
		s.basic[jr>>6] &^= 1 << (jr & 63)
	}
	s.markRow(r)
	s.markCol(q)
	s.markCol(jr)
}

// installBasis adopts the reference's basis and nonbasic bound flags (a
// branch-and-bound node's parent optimum, see snapshot). Returns false
// when that basis is numerically singular, in which case the caller
// should fall back to installSlackBasis.
//
// Best-first pops usually land close to the previously solved node, so
// the snapshot differs from the in-state basis in a handful of columns.
// Those are swapped in as product-form updates (one FTRAN each) against
// the existing factors — a refactorization runs only when the diff is
// large, an update pivot is too small, or the factors are already
// carrying a long eta list.
func (s *lpState) installBasis() bool {
	repaired := s.repairBasis(s.ref.basis)
	s.adoptRef()
	if repaired {
		return true
	}
	return s.f.factorize(&s.c, s.basis)
}

// adoptRef writes the reference's basis and at-upper flags into the
// state, which then matches the reference.
func (s *lpState) adoptRef() {
	copy(s.basis, s.ref.basis)
	copy(s.atUp, s.ref.up)
	for j := range s.pos {
		s.pos[j] = -1
	}
	clear(s.basic)
	for i, j := range s.basis {
		s.pos[j] = int32(i)
		setBit(s.atUp, int(j), false)
		if int(j) < s.n {
			s.basic[j>>6] |= 1 << (j & 63)
		}
	}
	s.markClean()
}

// repairBasis tries to morph the current factorization into one for
// target by replacing differing columns one at a time (product-form
// updates). Returns false when a fresh factorization is the better or
// only option; s.basis is untouched either way.
func (s *lpState) repairBasis(target []int32) bool {
	if s.f.m != s.m {
		return false
	}
	diff := s.touched[:0]
	for i := range target {
		if s.basis[i] != target[i] {
			diff = append(diff, int32(i))
		}
	}
	s.touched = diff[:0]
	if len(diff) == 0 {
		return true
	}
	if len(diff) > maxEtas/4 || len(s.f.etas)+len(diff) > maxEtas {
		return false
	}
	// Replacement order matters (a pivot can be zero until another
	// column lands); retry deferred rows until no progress is made,
	// compacting the deferred ones in place.
	pending := diff
	for len(pending) > 0 {
		progress := false
		next := pending[:0]
		for _, r32 := range pending {
			r := int(r32)
			pat := s.ftranCol(int(target[r]))
			if math.Abs(s.w[r]) >= 100*etaPivTol {
				s.f.update(r, s.w, pat)
				s.basis[r] = target[r]
				progress = true
			} else {
				next = append(next, r32)
			}
			zeroAt(s.w, pat)
		}
		if !progress {
			return false
		}
		pending = next
	}
	return true
}

// computeXB recomputes the basic values from scratch:
// x_B = B⁻¹ (b − Σ_nonbasic A_j·val_j).
func (s *lpState) computeXB() {
	copy(s.xB, s.b)
	for j := 0; j < s.N; j++ {
		if s.pos[j] >= 0 {
			continue
		}
		v := s.val(j)
		if v == 0 {
			continue
		}
		if j < s.n {
			for k := s.c.ptr[j]; k < s.c.ptr[j+1]; k++ {
				s.xB[s.c.row[k]] -= s.c.val[k] * v
			}
		} else {
			s.xB[j-s.n] -= v
		}
	}
	s.f.ftran(s.xB, nil)
	for i := range s.xB {
		s.checkRow(i)
	}
}

// ftranCol solves B w = A_q into s.w, which is zero on entry, and
// returns the rows where w can be non-zero, for zeroAt to clear again.
func (s *lpState) ftranCol(q int) []int32 {
	if q >= s.n {
		s.w[q-s.n] = 1
		return s.f.ftran(s.w, []int32{int32(q - s.n)})
	}
	for k := s.c.ptr[q]; k < s.c.ptr[q+1]; k++ {
		s.w[s.c.row[k]] = s.c.val[k]
	}
	return s.f.ftran(s.w, s.c.row[s.c.ptr[q]:s.c.ptr[q+1]])
}

// zeroAt zeroes v at the indices at.
func zeroAt(v []float64, at []int32) {
	for _, i := range at {
		v[i] = 0
	}
}

// computeDuals recomputes reduced costs from scratch:
// y = B⁻ᵀ c_B, d_j = c_j − y·A_j.
func (s *lpState) computeDuals() {
	for i, j := range s.basis {
		s.rho[i] = s.cost[j]
	}
	s.f.btran(s.rho, nil)
	s.c.mulRow(s.rho, s.d)
	for j := 0; j < s.N; j++ {
		if s.pos[j] >= 0 {
			s.d[j] = 0
		} else {
			s.d[j] = s.cost[j] - s.d[j]
		}
	}
	clear(s.rho)
	s.rhoNZ = s.rhoNZ[:0]
}

// pivotRow builds α = ρᵀ[A I] for the ρ in s.rho from ρ's non-zero
// rows only — pat lists, ascending, the rows where ρ can be non-zero —
// and lists the nonbasic columns with α_j ≠ 0 in s.touched, ascending.
// Each α_j receives its products in ascending row order, as from
// mulRow, so the values are bit-identical; only the previous row's
// entries are cleared.
func (s *lpState) pivotRow(pat []int32) {
	for _, j := range s.rowCols {
		s.alpha[j] = 0
	}
	nzr := s.rhoNZ[:0]
	for _, i := range pat {
		ri := s.rho[i]
		if ri == 0 {
			continue
		}
		nzr = append(nzr, i)
		r := &s.c.rows[i]
		for k, j := range r.Idx {
			s.rowMark[j>>6] |= 1 << (j & 63)
			s.alpha[j] += ri * r.Val[k]
		}
	}
	cols := appendBits(s.rowCols[:0], s.rowMark)
	for _, i := range nzr {
		j := int32(s.n) + i
		s.alpha[j] = s.rho[i]
		cols = append(cols, j)
	}
	touched := s.touched[:0]
	for _, j := range cols {
		if s.pos[j] < 0 && s.alpha[j] != 0 {
			touched = append(touched, j)
		}
	}
	s.rowCols, s.rhoNZ, s.touched = cols, nzr, touched
}

// refresh refactorizes the current basis and recomputes xB and duals.
func (s *lpState) refresh() bool {
	if !s.f.factorize(&s.c, s.basis) {
		return false
	}
	s.computeXB()
	s.computeDuals()
	return true
}

// feasEps is the primal feasibility tolerance at a bound of zero.
const feasEps = 1e-7

// feasTolFor scales the primal feasibility tolerance with the bound
// magnitude (capacity rows carry byte counts ~1e9).
func feasTolFor(bound float64) float64 {
	if math.IsInf(bound, 0) {
		return feasEps
	}
	return feasEps * (1 + math.Abs(bound))
}

// leavingRow picks, of the rows infeas marks, the one whose basic value
// violates its bounds the most (Bland mode: the smallest variable
// index), or -1, and the bound it leaves to: -1 lower, +1 upper.
func (s *lpState) leavingRow() (r int, dir float64) {
	r = -1
	worst := 0.0
	for w, word := range s.infeas {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			j, v := s.basis[i], s.xB[i]
			if v < s.loTol[j] {
				if viol := s.lo[j] - v; s.bland {
					if r < 0 || j < s.basis[r] {
						r, dir = i, -1
					}
				} else if viol > worst {
					r, dir, worst = i, -1, viol
				}
			} else if v > s.upTol[j] {
				if viol := v - s.up[j]; s.bland {
					if r < 0 || j < s.basis[r] {
						r, dir = i, +1
					}
				} else if viol > worst {
					r, dir, worst = i, +1, viol
				}
			}
		}
	}
	return r, dir
}

// resolve re-solves the LP under the current bounds from the slack
// basis, after dualSimplex failed numerically on them. The slack basis
// is dual feasible for every problem validate admits, because a
// continuous column never costs less than zero, and it always
// factorizes. The retry's ratio test prefers sturdier pivots (see
// safePivTol); a solve that does not fail never comes here, so it keeps
// every pivot.
func (s *lpState) resolve(maxIter int) lpStatus {
	s.installSlackBasis()
	s.computeXB()
	s.computeDuals()
	s.safe = true
	status := s.dualSimplex(maxIter)
	s.safe = false
	return status
}

// safePivTol and harrisTol shape the retry's ratio test. Where the
// plain rule's column has |α| below safePivTol, the retry looks at the
// entering candidates whose ratio is within Harris's bound (the minimum
// ratio with reduced costs relaxed by harrisTol) and takes the largest
// |α| among them when that reaches safePivTol, else the plain rule's
// column. Eligibility is the plain rule's, so a retry finds a node
// infeasible exactly where the plain rule would.
const (
	safePivTol = 1e-7
	harrisTol  = 1e-12
)

// dualSimplex runs to primal feasibility (= optimality, since dual
// feasibility is an invariant) under the current bounds.
func (s *lpState) dualSimplex(maxIter int) lpStatus {
	justRefreshed := false
	start := s.iters
	for {
		if s.iters-start >= maxIter {
			return lpFail
		}
		s.iters++

		r, dir := s.leavingRow()
		if r < 0 {
			return lpOptimal
		}
		jr := int(s.basis[r])

		// α row: ρ = B⁻ᵀ e_r, α = ρᵀ[A I] scattered from the rows ρ
		// touches; the ratio test then reads it for the nonbasic columns
		// it touches, in ascending order.
		zeroAt(s.rho, s.rhoNZ)
		s.rho[r] = 1
		s.pivotRow(s.f.btran(s.rho, []int32{int32(r)}))
		q := -1
		bestRatio := math.Inf(1)
		bestAbs := 0.0
		for _, j32 := range s.touched {
			j := int(j32)
			a := s.alpha[j]
			if s.lo[j] == s.up[j] {
				continue // fixed: never enters
			}
			ab := dir * a
			var eligible bool
			var num float64
			if !s.isUp(j) {
				eligible = ab > etaPivTol
				num = math.Max(s.d[j], 0)
			} else {
				eligible = ab < -etaPivTol
				num = math.Max(-s.d[j], 0)
			}
			if !eligible {
				continue
			}
			ratio := num / math.Abs(a)
			if s.bland {
				// Smallest-index eligible column that keeps every other
				// reduced cost feasible, i.e. minimum ratio; ties break
				// toward the smaller index by scan order.
				if ratio < bestRatio-1e-12 {
					bestRatio, q = ratio, j
				}
			} else if ratio < bestRatio-1e-12 ||
				(ratio <= bestRatio+1e-12 && math.Abs(a) > bestAbs) {
				bestRatio, bestAbs, q = ratio, math.Abs(a), j
			}
		}
		if q < 0 {
			// No entering column can repair the violated row: the node's
			// primal problem is infeasible (dual unbounded).
			return lpInfeasible
		}
		if s.safe && !s.bland && math.Abs(s.alpha[q]) < safePivTol {
			q = s.saferEntering(q, dir)
		}

		aq := s.alpha[q]
		// Fresh FTRAN of the entering column; cross-check against the
		// BTRAN-derived pivot to catch factorization drift.
		pat := s.ftranCol(q)
		if testHook.pivot != nil {
			testHook.pivot(s, r, pat)
		}
		if math.Abs(s.w[r]-aq) > 1e-7*(1+math.Abs(aq)) || math.Abs(s.w[r]) < etaPivTol {
			zeroAt(s.w, pat)
			if justRefreshed {
				return lpFail
			}
			if !s.refresh() {
				return lpFail
			}
			justRefreshed = true
			s.iters-- // retry this iteration against fresh factors
			continue
		}
		justRefreshed = false
		aq = s.w[r]

		// Dual update: θ keeps d_q at zero after entering.
		theta := s.d[q] / aq
		for _, j32 := range s.touched {
			j := int(j32)
			if j != q {
				s.d[j] -= theta * s.alpha[j]
			}
		}
		s.d[jr] = -theta
		s.d[q] = 0

		// Primal update: the leaving variable lands exactly on its
		// violated bound.
		target := s.lo[jr]
		if dir > 0 {
			target = s.up[jr]
		}
		delta := (s.xB[r] - target) / aq
		if delta != 0 {
			for _, i := range pat {
				if wi := s.w[i]; wi != 0 {
					s.xB[i] -= delta * wi
					s.checkRow(int(i))
				}
			}
		}
		enterVal := s.val(q) + delta
		s.xB[r] = enterVal

		// Book-keeping: q becomes basic in row r, jr leaves to its bound.
		s.pivot(r, q, dir > 0 && s.lo[jr] != s.up[jr])
		s.f.update(r, s.w, pat)
		zeroAt(s.w, pat)

		if math.Abs(delta) <= 1e-12 {
			s.degen++
			if s.degen > degenLimit {
				s.bland = true
			}
		} else {
			s.degen = 0
		}
		if len(s.f.etas) >= maxEtas {
			if !s.refresh() {
				return lpFail
			}
			justRefreshed = true
		}
	}
}

// saferEntering is the retry's second ratio-test pass over the pivot
// row: among the eligible columns whose ratio is at most Harris's bound,
// the one with the largest |α|, if that reaches safePivTol; q, the plain
// rule's choice, otherwise.
func (s *lpState) saferEntering(q int, dir float64) int {
	bound := math.Inf(1)
	for _, j32 := range s.touched {
		j := int(j32)
		if num, a, ok := s.ratioTerms(j, dir); ok {
			bound = math.Min(bound, (num+harrisTol)/a)
		}
	}
	best, bestAbs := q, safePivTol
	for _, j32 := range s.touched {
		j := int(j32)
		if num, a, ok := s.ratioTerms(j, dir); ok && num/a <= bound && a > bestAbs {
			best, bestAbs = j, a
		}
	}
	return best
}

// ratioTerms returns nonbasic column j's ratio-test numerator and |α_j|
// on the pivot row leaving toward dir, and whether j may enter: the
// terms dualSimplex's ratio test computes inline, where a call (too
// costly to inline) would slow every pivot.
func (s *lpState) ratioTerms(j int, dir float64) (num, a float64, ok bool) {
	if s.lo[j] == s.up[j] {
		return 0, 0, false
	}
	ab := dir * s.alpha[j]
	if !s.isUp(j) {
		return math.Max(s.d[j], 0), math.Abs(ab), ab > etaPivTol
	}
	return math.Max(-s.d[j], 0), math.Abs(ab), ab < -etaPivTol
}

// extract writes the structural solution into s.x (clamped to bounds)
// and returns the objective c·x, visiting in ascending order only the
// columns that can be non-zero: a skipped c_j·0 can only flip a zero.
func (s *lpState) extract() float64 {
	zeroAt(s.x, s.xCols)
	cols := s.xCols[:0]
	var obj float64
	for w, word := range s.basic {
		for word |= s.atUp[w] | s.loNZ[w]; word != 0; word &= word - 1 {
			j := w<<6 | bits.TrailingZeros64(word)
			if j >= s.n {
				break
			}
			var v float64
			if p := s.pos[j]; p >= 0 {
				v = s.xB[p]
				if v < s.lo[j] {
					v = s.lo[j]
				}
				if v > s.up[j] {
					v = s.up[j]
				}
			} else {
				v = s.val(j)
			}
			s.x[j] = v
			cols = append(cols, int32(j))
			obj += s.cost[j] * v
		}
	}
	s.xCols = cols
	return obj
}
