package ilp

import (
	"math"
	"time"
)

// Bounded-variable dual simplex over the sparse revised representation.
//
// Variables carry their bounds natively (0 ≤ x ≤ u for structural
// columns, 0 ≤ s for slacks), so upper bounds and branch-and-bound
// fixings are bound-array writes instead of appended rows. The dual
// simplex is the natural engine for this solver's two entry points:
//
//   - the root LP starts from the all-slack basis, which is dual
//     feasible once each nonbasic column is parked at the bound
//     matching its cost sign;
//   - a branch-and-bound child tightens one variable's bounds, which
//     preserves the parent basis's dual feasibility exactly — the
//     child re-solve is a handful of dual pivots from the parent
//     optimum rather than a from-scratch two-phase solve.
//
// Anti-cycling: after degenLimit consecutive degenerate pivots the
// solve switches to Bland's rule (smallest-index leaving and entering
// choices), which guarantees termination on the degenerate instances
// the tests construct.

const (
	// bigBound stands in for +inf on columns that must sit at an upper
	// bound for the initial basis to be dual feasible (negative cost,
	// unbounded above). A solution touching it means the LP is unbounded.
	bigBound = 1e13
)

// degenLimit is the consecutive-degenerate-pivot count that trips
// Bland's rule. A variable so the anti-cycling tests can force Bland
// mode from the first pivot and run whole solves under it.
var degenLimit = 40

type lpStatus int

const (
	lpOptimal lpStatus = iota
	lpInfeasible
	lpDeadline
	lpFail
)

// lpState is the mutable revised-simplex state for one Solve call. It
// is pooled: every slice is resized in place by init.
type lpState struct {
	c *csc
	m int // constraint rows
	n int // structural columns
	N int // n + m

	b      []float64 // row rhs
	cost   []float64 // len N; slack costs zero
	lo     []float64 // len N current bounds
	up     []float64
	baseUp []float64 // len n: problem upper bounds before any fixing
	art    []bool    // up[j] is the artificial bigBound

	basis []int32 // len m
	pos   []int32 // len N: basis row, or -1
	atUp  []bool  // len N: nonbasic at upper bound

	xB []float64 // len m: basic values
	d  []float64 // len N: reduced costs

	f factor
	// ref is branch-and-bound's warm-start reference (see snapshot).
	ref snapshot

	// scratch
	rho, w, alpha, x []float64
	touched          []int32

	bland bool
	degen int
	iters int // simplex iterations across the whole Solve
}

// init sizes the state for a problem with m rows and n structural
// columns and loads costs/bounds/rhs. Bound arrays hold the *base*
// problem bounds; branch-and-bound overlays fixings on top.
func (s *lpState) init(c *csc, cvec, b, u []float64, binary []bool) {
	s.c = c
	s.m = c.m
	s.n = c.n
	s.N = c.n + c.m
	growF64(&s.b, s.m)
	copy(s.b, b)
	growF64(&s.cost, s.N)
	growF64(&s.lo, s.N)
	growF64(&s.up, s.N)
	growF64(&s.baseUp, s.n)
	growF64(&s.xB, s.m)
	growF64(&s.d, s.N)
	growF64(&s.rho, s.m)
	growF64(&s.w, s.m)
	growF64(&s.alpha, s.N)
	growF64(&s.x, s.n)
	if cap(s.art) < s.N {
		s.art = make([]bool, s.N)
		s.atUp = make([]bool, s.N)
	}
	s.art = s.art[:s.N]
	s.atUp = s.atUp[:s.N]
	growI32(&s.basis, s.m)
	growI32(&s.pos, s.N)
	if cap(s.touched) < s.N {
		s.touched = make([]int32, 0, s.N)
	}

	for j := 0; j < s.N; j++ {
		s.art[j] = false
		if j < s.n {
			s.cost[j] = cvec[j]
			s.lo[j] = 0
			uj := math.Inf(1)
			if u != nil {
				uj = u[j]
			} else if binary != nil && binary[j] {
				uj = 1
			}
			if math.IsInf(uj, 1) && cvec[j] < 0 {
				// The all-slack basis is dual feasible only with this
				// column at an upper bound; give it an artificial one.
				uj = bigBound
				s.art[j] = true
			}
			s.up[j] = uj
			s.baseUp[j] = uj
		} else {
			s.cost[j] = 0
			s.lo[j] = 0
			s.up[j] = math.Inf(1)
		}
	}
	s.bland = false
	s.degen = 0
	s.iters = 0
}

// val returns nonbasic variable j's current value.
func (s *lpState) val(j int) float64 {
	if s.atUp[j] {
		return s.up[j]
	}
	return s.lo[j]
}

// installSlackBasis resets to the all-slack basis with every structural
// column at the bound matching its cost sign. Always factorizable.
func (s *lpState) installSlackBasis() {
	for j := 0; j < s.n; j++ {
		s.pos[j] = -1
		s.atUp[j] = s.cost[j] < 0 && !math.IsInf(s.up[j], 1)
		if s.lo[j] == s.up[j] {
			s.atUp[j] = false
		}
	}
	for i := 0; i < s.m; i++ {
		j := s.n + i
		s.basis[i] = int32(j)
		s.pos[j] = int32(i)
		s.atUp[j] = false
	}
	if !s.f.factorize(s.c, s.basis) {
		panic("ilp: slack basis must factorize")
	}
}

// installBasis adopts a snapshot basis and nonbasic bound flags (from a
// branch-and-bound node). Returns false when the snapshot is
// numerically singular, in which case the caller should fall back to
// installSlackBasis.
//
// Best-first pops usually land close to the previously solved node, so
// the snapshot differs from the in-state basis in a handful of columns.
// Those are swapped in as product-form updates (one FTRAN each) against
// the existing factors — a refactorization runs only when the diff is
// large, an update pivot is too small, or the factors are already
// carrying a long eta list.
func (s *lpState) installBasis(basis []int32, atUp []uint64) bool {
	repaired := s.repairBasis(basis)
	copy(s.basis, basis)
	for j := range s.pos {
		s.pos[j] = -1
		s.atUp[j] = atUp[j>>6]&(1<<(j&63)) != 0
	}
	for i, j := range s.basis {
		s.pos[j] = int32(i)
		s.atUp[j] = false
	}
	if repaired {
		return true
	}
	return s.f.factorize(s.c, s.basis)
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
	// column lands); retry deferred rows until no progress is made.
	pending := append([]int32(nil), diff...)
	for len(pending) > 0 {
		progress := false
		next := pending[:0]
		for _, r32 := range pending {
			r := int(r32)
			s.c.scatter(int(target[r]), s.w)
			s.f.ftran(s.w)
			if math.Abs(s.w[r]) < 100*etaPivTol {
				next = append(next, r32)
				continue
			}
			s.f.update(r, s.w)
			s.basis[r] = target[r]
			progress = true
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
	s.f.ftran(s.xB)
}

// computeDuals recomputes reduced costs from scratch:
// y = B⁻ᵀ c_B, d_j = c_j − y·A_j.
func (s *lpState) computeDuals() {
	for i, j := range s.basis {
		s.rho[i] = s.cost[j]
	}
	s.f.btran(s.rho)
	s.c.mulRow(s.rho, s.alpha)
	for j := 0; j < s.N; j++ {
		if s.pos[j] >= 0 {
			s.d[j] = 0
		} else {
			s.d[j] = s.cost[j] - s.alpha[j]
		}
	}
}

// refresh refactorizes the current basis and recomputes xB and duals.
func (s *lpState) refresh() bool {
	if !s.f.factorize(s.c, s.basis) {
		return false
	}
	s.computeXB()
	s.computeDuals()
	return true
}

// feasTolFor scales the primal feasibility tolerance with the bound
// magnitude (capacity rows carry byte counts ~1e9).
func feasTolFor(bound float64) float64 {
	if math.IsInf(bound, 0) {
		return feasEps
	}
	return feasEps * (1 + math.Abs(bound))
}

// dualSimplex runs to primal feasibility (= optimality, since dual
// feasibility is an invariant) under the current bounds.
func (s *lpState) dualSimplex(maxIter int, deadline time.Time) lpStatus {
	justRefreshed := false
	start := s.iters
	for {
		if s.iters-start >= maxIter {
			return lpFail
		}
		s.iters++
		//fast:allow nondetsource simplex deadline seam: expiry aborts to the greedy fallback, it does not alter pivots
		if s.iters%64 == 0 && !deadline.IsZero() && time.Now().After(deadline) {
			return lpDeadline
		}

		// Leaving row: the basic variable with the largest bound
		// violation (Bland mode: the smallest variable index violated).
		r := -1
		var dir float64
		worst := 0.0
		for i := 0; i < s.m; i++ {
			j := s.basis[i]
			v := s.xB[i]
			if lo := s.lo[j]; v < lo-feasTolFor(lo) {
				if viol := lo - v; s.bland {
					if r < 0 || j < s.basis[r] {
						r, dir = i, -1
					}
				} else if viol > worst {
					r, dir, worst = i, -1, viol
				}
			} else if u := s.up[j]; v > u+feasTolFor(u) {
				if viol := v - u; s.bland {
					if r < 0 || j < s.basis[r] {
						r, dir = i, +1
					}
				} else if viol > worst {
					r, dir, worst = i, +1, viol
				}
			}
		}
		if r < 0 {
			return lpOptimal
		}
		jr := int(s.basis[r])

		// α row: ρ = B⁻ᵀ e_r, α = ρᵀ[A I] scattered from the rows ρ
		// touches; the ratio test then reads it for every nonbasic column.
		for i := range s.rho {
			s.rho[i] = 0
		}
		s.rho[r] = 1
		s.f.btran(s.rho)
		s.c.mulRow(s.rho, s.alpha)
		s.touched = s.touched[:0]
		q := -1
		bestRatio := math.Inf(1)
		bestAbs := 0.0
		for j := 0; j < s.N; j++ {
			if s.pos[j] >= 0 {
				continue
			}
			a := s.alpha[j]
			if a == 0 {
				continue
			}
			s.touched = append(s.touched, int32(j))
			if s.lo[j] == s.up[j] {
				continue // fixed: never enters
			}
			ab := dir * a
			var eligible bool
			var num float64
			if !s.atUp[j] {
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

		aq := s.alpha[q]
		// Fresh FTRAN of the entering column; cross-check against the
		// BTRAN-derived pivot to catch factorization drift.
		s.c.scatter(q, s.w)
		s.f.ftran(s.w)
		if math.Abs(s.w[r]-aq) > 1e-7*(1+math.Abs(aq)) || math.Abs(s.w[r]) < etaPivTol {
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
			for i, wi := range s.w {
				if wi != 0 {
					s.xB[i] -= delta * wi
				}
			}
		}
		enterVal := s.val(q) + delta
		s.xB[r] = enterVal

		// Book-keeping: q becomes basic in row r, jr leaves to its bound.
		s.basis[r] = int32(q)
		s.pos[q] = int32(r)
		s.pos[jr] = -1
		s.atUp[jr] = dir > 0
		if s.lo[jr] == s.up[jr] {
			s.atUp[jr] = false
		}
		s.f.update(r, s.w)

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

// extract writes the structural solution into s.x (clamped to bounds)
// and returns the objective c·x.
func (s *lpState) extract() float64 {
	for j := 0; j < s.n; j++ {
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
	}
	var obj float64
	for j := 0; j < s.n; j++ {
		obj += s.cost[j] * s.x[j]
	}
	return obj
}

// hitsArtificialBound reports whether the current solution leans on an
// artificial bigBound upper bound, i.e. the true LP is unbounded in
// that direction.
func (s *lpState) hitsArtificialBound() bool {
	for j := 0; j < s.n; j++ {
		if !s.art[j] {
			continue
		}
		if s.pos[j] >= 0 {
			if s.xB[s.pos[j]] > bigBound/2 {
				return true
			}
		} else if s.atUp[j] {
			return true
		}
	}
	return false
}
