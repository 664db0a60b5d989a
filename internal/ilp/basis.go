package ilp

import (
	"math"
	"math/bits"
	"slices"
)

// Basis factorization for the revised simplex: a sparse LU of a
// reference basis plus a list of product-form (eta) rank-one updates.
// Each simplex pivot appends one eta instead of re-eliminating the
// whole tableau; the LU is recomputed only at refactorization points
// (eta list too long, basis installed from a branch-and-bound node, or
// numerical drift).
//
// FTRAN solves B x = v (apply LU, then etas in creation order); BTRAN
// solves Bᵀ y = v (apply eta transposes in reverse, then the LU
// transpose). The basis dimension m counts constraint rows only —
// variable upper bounds live in the bound arrays, never as rows.
//
// Every kernel here is an order-preserving sparsification of the dense
// row-major LU it replaced (kept as the frozen reference in
// reference_test.go): each accumulator receives the same non-zero
// products, in the same order, through the same `x -= a*b` expression,
// so results agree bit for bit. Skipping a product with a zero operand
// only drops a ±0 term, which can flip the sign of an exactly-zero
// result and nothing else; no comparison, ratio or pivot reads the sign
// of a zero. Fusion bases hold ~2 non-zeros per row (efficientnet-b7:
// m=548, nnz(LU)≈1100). Where the dense solves walked m² entries,
// these multiply only non-zeros. Told where a right-hand side can be
// non-zero, FTRAN and BTRAN visit only the rows it reaches
// (Gilbert–Peierls) and return where the solution can be non-zero.

const (
	// maxEtas bounds the product-form update list before the basis is
	// refactorized from scratch. Applying an eta costs its non-zero
	// count, the same order as the sparse triangular solves of the base
	// LU, so a long list stays cheap; the bound exists to limit
	// accumulated numerical drift (and the FTRAN/BTRAN cross-check forces
	// an early refactorization when drift shows up sooner).
	maxEtas = 192
	// luPivTol is the smallest acceptable LU pivot magnitude.
	luPivTol = 1e-11
	// etaPivTol is the smallest acceptable eta (simplex pivot) magnitude.
	etaPivTol = 1e-9
)

// eta is one product-form update: basis row r was replaced by a column
// whose FTRAN'd image had pivot piv at r and the non-zeros
// eidx/eval[lo:hi] (ascending row, pivot included).
type eta struct {
	r      int32
	lo, hi int32
	piv    float64
}

// factor is the LU + eta representation of the current basis inverse,
// P·B = L·U with P the row swaps in ipiv: original row i lands at
// position posOf[i], and position k holds original row prow[k].
type factor struct {
	m    int
	ipiv []int32 // LAPACK-style row swaps

	// L is unit lower triangular; its strict part is stored by columns,
	// column k spanning [lptr[k], lptr[k+1]) with ascending row indices.
	lptr, lidx []int32
	lval       []float64
	// U's strict upper part is stored by rows, row k spanning
	// [uptr[k], uptr[k+1]) with ascending column indices; udiag holds
	// the pivots.
	uptr, uidx []int32
	uval       []float64
	udiag      []float64
	// U's strict upper part by columns, pattern only: column k holds the
	// rows tuRow[ucptr[k]:ucptr[k+1]].
	ucptr []int32
	// L's strict lower part by rows, pattern only: row i holds the
	// columns lrcol[lrptr[i]:lrptr[i+1]], ascending.
	lrptr, lrcol []int32

	// Solve scratch: the rows non-zero after the L solve, the bitset of
	// rows a solve reaches (all clear between calls), the reach's stack,
	// the values permute moves, and the patterns ftran and btran return.
	nz         []int32
	reach      []uint64
	stack      []int32
	moved      []float64
	fpat, bpat []int32

	etas []eta
	eidx []int32
	eval []float64

	// factorize scratch, all O(m + nnz(U)).
	x                  []float64 // work column, indexed by original row
	mark               []bool    // original row is in pat
	pat                []int32   // original rows x may be non-zero at
	steps              []int32   // min-heap of pivot steps still to apply
	rowAt, posOf, step []int32   // position ↔ original row; pivot step of a row, or -1
	prow               []int32   // original row pivoted at each step (kept)
	tuRow, tuCol       []int32   // U entries in column-major creation order
	tuVal              []float64
}

// grow resizes *p to length n in place, reallocating with append's
// headroom only when its capacity is short; contents are not cleared.
func grow[T any](p *[]T, n int) []T {
	if cap(*p) < n {
		*p = slices.Grow((*p)[:0], n)
	}
	*p = (*p)[:n]
	return *p
}

func (f *factor) dropEtas() {
	f.etas = f.etas[:0]
	f.eidx = f.eidx[:0]
	f.eval = f.eval[:0]
}

// factorize builds the LU of the basis whose columns are the
// full-system columns basis[0..m) of c. Returns false on a (numerically)
// singular basis.
//
// The elimination is left-looking: column k of the basis is scattered
// into a work vector, the earlier pivot steps that reach it are applied
// in ascending step order, and the partial pivot is chosen among the
// rows not yet pivoted — largest magnitude, ties to the row that
// currently sits highest, which is the first maximum a top-down scan of
// a row-swapped dense array finds. An entry (i, j) thus receives the
// updates l_ik·u_kj for ascending k, exactly as right-looking dense
// elimination delivers them, and L, U and ipiv come out identical
// without an m×m array.
func (f *factor) factorize(c *csc, basis []int32) bool {
	m := len(basis)
	f.m = m
	f.dropEtas()
	ipiv := grow(&f.ipiv, m)
	lptr := grow(&f.lptr, m+1)
	udiag := grow(&f.udiag, m)
	x := grow(&f.x, m)
	rowAt, posOf := grow(&f.rowAt, m), grow(&f.posOf, m)
	step, prow := grow(&f.step, m), grow(&f.prow, m)
	mark := grow(&f.mark, m)
	for i := 0; i < m; i++ {
		x[i] = 0
		mark[i] = false
		rowAt[i], posOf[i] = int32(i), int32(i)
		step[i] = -1
	}
	f.lidx, f.lval = f.lidx[:0], f.lval[:0]
	f.tuRow, f.tuCol, f.tuVal = f.tuRow[:0], f.tuCol[:0], f.tuVal[:0]
	f.steps = f.steps[:0]

	lptr[0] = 0
	for k, col := range basis {
		f.pat = f.pat[:0]
		if j := int(col); j < c.n {
			for p := c.ptr[j]; p < c.ptr[j+1]; p++ {
				x[c.row[p]] = c.val[p]
				f.touch(c.row[p])
			}
		} else {
			x[j-c.n] = 1
			f.touch(int32(j - c.n))
		}
		for len(f.steps) > 0 {
			st := f.popStep()
			u := x[prow[st]]
			if u == 0 {
				continue // cancelled exactly: the dense update subtracts l·0
			}
			f.tuRow = append(f.tuRow, st)
			f.tuCol = append(f.tuCol, int32(k))
			f.tuVal = append(f.tuVal, u)
			for p := lptr[st]; p < lptr[st+1]; p++ {
				i := f.lidx[p]
				if i < 0 {
					continue // underflowed multiplier: stored, never applied
				}
				if !mark[i] {
					f.touch(i)
				}
				x[i] -= f.lval[p] * u
			}
		}

		// Partial pivoting over the rows without a pivot step yet.
		piv, best := int32(-1), 0.0
		for _, i := range f.pat {
			if step[i] >= 0 {
				continue
			}
			if a := math.Abs(x[i]); a > best || (a == best && piv >= 0 && posOf[i] < posOf[piv]) {
				piv, best = i, a
			}
		}
		if best < luPivTol {
			return false
		}
		p := posOf[piv]
		ipiv[k] = p
		other := rowAt[k]
		rowAt[k], rowAt[p] = piv, other
		posOf[piv], posOf[other] = int32(k), p
		step[piv], prow[k] = int32(k), piv
		udiag[k] = x[piv]
		inv := 1 / x[piv]
		for _, i := range f.pat {
			if a := x[i]; step[i] < 0 && a != 0 {
				if l := a * inv; l != 0 {
					f.lidx = append(f.lidx, i)
					f.lval = append(f.lval, l)
				} else {
					// The dense elimination skips a multiplier that
					// underflows to zero but leaves the raw entry in L's
					// slot, where the solves still read it. Keep that: the
					// complemented index hides it from later updates.
					f.lidx = append(f.lidx, ^i)
					f.lval = append(f.lval, a)
				}
			}
			x[i] = 0
			mark[i] = false
		}
		lptr[k+1] = int32(len(f.lidx))
	}

	// L's rows move to their final positions; ascending within a column.
	lidx, lval := f.lidx, f.lval
	for k := 0; k < m; k++ {
		lo, hi := int(lptr[k]), int(lptr[k+1])
		for p := lo; p < hi; p++ {
			i := lidx[p]
			if i < 0 {
				i = ^i
			}
			pi, v := posOf[i], lval[p]
			q := p
			for ; q > lo && lidx[q-1] > pi; q-- {
				lidx[q], lval[q] = lidx[q-1], lval[q-1]
			}
			lidx[q], lval[q] = pi, v
		}
	}
	// U by rows: the entries were created column by column, so a stable
	// counting pass leaves each row's columns ascending.
	uptr := grow(&f.uptr, m+1)
	for i := range uptr {
		uptr[i] = 0
	}
	for _, r := range f.tuRow {
		uptr[r+1]++
	}
	for k := 0; k < m; k++ {
		uptr[k+1] += uptr[k]
	}
	uidx, uval := grow(&f.uidx, len(f.tuRow)), grow(&f.uval, len(f.tuRow))
	next := rowAt // positions are final; reuse the storage as fill cursors
	copy(next, uptr[:m])
	for e, r := range f.tuRow {
		uidx[next[r]] = f.tuCol[e]
		uval[next[r]] = f.tuVal[e]
		next[r]++
	}
	// U by columns is tuRow itself, created column by column.
	ucptr := grow(&f.ucptr, m+1)
	for k := range ucptr {
		ucptr[k] = 0
	}
	for _, k := range f.tuCol {
		ucptr[k+1]++
	}
	for k := 0; k < m; k++ {
		ucptr[k+1] += ucptr[k]
	}
	// L by rows, for BTRAN's reach, by a counting pass like U's.
	lrptr, lrcol := grow(&f.lrptr, m+1), grow(&f.lrcol, int(lptr[m]))
	clear(lrptr)
	for _, i := range lidx[:lptr[m]] {
		lrptr[i+1]++
	}
	for k := 0; k < m; k++ {
		lrptr[k+1] += lrptr[k]
	}
	copy(next, lrptr[:m])
	for k := 0; k < m; k++ {
		for _, i := range lidx[lptr[k]:lptr[k+1]] {
			lrcol[next[i]] = int32(k)
			next[i]++
		}
	}
	clear(grow(&f.reach, (m+63)/64))
	f.nz, f.stack, f.fpat, f.bpat = grow(&f.nz, m)[:0], grow(&f.stack, m)[:0], grow(&f.fpat, m)[:0], grow(&f.bpat, m)[:0]
	f.moved = grow(&f.moved, m)[:0]
	return true
}

// touch adds original row i to the work pattern of the column being
// eliminated; a row that already has a pivot step queues that step on
// the min-heap for application.
func (f *factor) touch(i int32) {
	f.mark[i] = true
	f.pat = append(f.pat, i)
	st := f.step[i]
	if st < 0 {
		return
	}
	h := append(f.steps, st)
	for c := len(h) - 1; c > 0; {
		p := (c - 1) / 2
		if h[p] <= h[c] {
			break
		}
		h[p], h[c] = h[c], h[p]
		c = p
	}
	f.steps = h
}

// popStep removes the smallest queued pivot step.
func (f *factor) popStep() int32 {
	h := f.steps
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	f.steps = h
	for i := 0; ; {
		l, r, min := 2*i+1, 2*i+2, i
		if l < last && h[l] < h[min] {
			min = l
		}
		if r < last && h[r] < h[min] {
			min = r
		}
		if min == i {
			return top
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// ftran solves B x = v in place (v has length m). in lists the rows
// where v can be non-zero, each once; it then returns the rows where x
// can be non-zero, ascending. A nil in means anywhere, and returns nil.
func (f *factor) ftran(v []float64, in []int32) []int32 {
	v = v[:f.m]
	reach, dense := f.reach, in == nil
	if dense {
		in = f.prow // every row
	}
	f.permute(v, in, f.posOf)
	// L (unit lower) forward substitution, column-oriented: v[i] still
	// receives its l_ij·v[j] in ascending j. v[j] is final when the sweep
	// reaches it, so the sweep also lists the U solve's non-zero inputs.
	f.nz = f.forward(v, f.lptr, f.lidx, f.lval, nil, f.nz[:0])
	// U back substitution, row-oriented over the stored non-zeros. (The
	// column form would deliver row i's terms in descending j and round
	// differently.) A sparse input visits only the rows it reaches. A
	// dense one, such as the basic values' right-hand side, reaches most
	// rows, so from a tenth of m non-zeros on the solve sweeps instead.
	if 10*len(f.nz) < f.m {
		f.usolveReach(v)
	} else {
		for i := len(v) - 1; i >= 0; i-- {
			f.usolveRow(v, i)
			reach[i>>6] |= 1 << (i & 63)
		}
	}
	// Product-form updates in creation order.
	for k := range f.etas {
		e := &f.etas[k]
		t := v[e.r] / e.piv
		if t != 0 {
			val := f.eval[e.lo:e.hi]
			for p, i := range f.eidx[e.lo:e.hi] {
				v[i] -= val[p] * t
				reach[i>>6] |= 1 << (i & 63)
			}
		}
		v[e.r] = t
	}
	if dense {
		clear(reach)
		return nil
	}
	f.fpat = appendBits(f.fpat[:0], reach)
	return f.fpat
}

// forward is a column-oriented forward substitution over the rows
// marked in f.reach, ascending: a non-zero v[j], divided by diag[j]
// unless diag is nil, scatters through column j (ptr, idx, val) into
// rows below j and marks them before the sweep gets there; unmarked
// rows hold zeros. It appends the non-zero rows to out, clearing f.reach.
func (f *factor) forward(v []float64, ptr, idx []int32, val, diag []float64, out []int32) []int32 {
	reach := f.reach
	for w := range reach {
		for word := reach[w]; word != 0; {
			b := bits.TrailingZeros64(word)
			if j := w<<6 | b; v[j] != 0 {
				vj := v[j]
				if diag != nil {
					vj /= diag[j]
					v[j] = vj
				}
				out = append(out, int32(j))
				lo, hi := ptr[j], ptr[j+1]
				vals := val[lo:hi]
				for p, i := range idx[lo:hi] {
					v[i] -= vals[p] * vj
					reach[i>>6] |= 1 << (i & 63)
				}
			}
			word = reach[w] & (^uint64(0) << (b + 1))
		}
		reach[w] = 0
	}
	return out
}

// permute moves v's entries at rows in to the rows to maps them to (the
// row swaps or their inverse), marking those in f.reach; v is zero elsewhere.
func (f *factor) permute(v []float64, in, to []int32) {
	moved := f.moved[:0]
	for _, i := range in {
		moved = append(moved, v[i])
		v[i] = 0
	}
	for k, i := range in {
		p := to[i]
		v[p] = moved[k]
		f.reach[p>>6] |= 1 << (p & 63)
	}
	f.moved = moved
}

// appendBits appends set's members to out, ascending, and clears set.
func appendBits(out []int32, set []uint64) []int32 {
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			out = append(out, int32(w<<6|bits.TrailingZeros64(word)))
		}
		set[w] = 0
	}
	return out
}

// usolveRow finishes row i of the U back substitution; every row above
// i that it reads is final.
func (f *factor) usolveRow(v []float64, i int) {
	s := v[i]
	lo, hi := f.uptr[i], f.uptr[i+1]
	val := f.uval[lo:hi]
	for p, j := range f.uidx[lo:hi] {
		s -= val[p] * v[j]
	}
	v[i] = s / f.udiag[i]
}

// usolveReach is the U back substitution on the rows reachable from
// f.nz through U's columns (Gilbert–Peierls): row i can end non-zero
// only if v[i] is or it has an entry u_ij at a reached row j. Every
// other row holds a zero that the full sweep would leave zero (up to
// its sign). The reached rows are solved highest first, exactly as the
// sweep solves them, and stay marked in f.reach.
func (f *factor) usolveReach(v []float64) {
	reach, stack := f.reach, f.stack[:0]
	for _, j := range f.nz {
		reach[j>>6] |= 1 << (j & 63)
		stack = append(stack, j)
	}
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, i := range f.tuRow[f.ucptr[j]:f.ucptr[j+1]] {
			if w, b := &reach[i>>6], uint64(1)<<(i&63); *w&b == 0 {
				*w |= b
				stack = append(stack, i)
			}
		}
	}
	f.stack = stack
	for w := len(reach) - 1; w >= 0; w-- {
		for word := reach[w]; word != 0; {
			b := 63 - bits.LeadingZeros64(word)
			word &^= 1 << b
			f.usolveRow(v, w<<6|b)
		}
	}
}

// btran solves Bᵀ y = v in place (v has length m); in and the rows it
// returns are as for ftran.
func (f *factor) btran(v []float64, in []int32) []int32 {
	v = v[:f.m]
	reach, dense := f.reach, in == nil
	if dense {
		in = f.prow // every row
	}
	for _, i := range in {
		reach[i>>6] |= 1 << (i & 63)
	}
	// Eta transposes in reverse order.
	for k := len(f.etas) - 1; k >= 0; k-- {
		e := &f.etas[k]
		var s float64
		val := f.eval[e.lo:e.hi]
		for p, i := range f.eidx[e.lo:e.hi] {
			s += val[p] * v[i]
		}
		// s includes the pivot term piv·v[r]; remove it.
		if v[e.r] = (v[e.r] - (s - e.piv*v[e.r])) / e.piv; v[e.r] != 0 {
			reach[e.r>>6] |= 1 << (e.r & 63)
		}
	}
	// Uᵀ forward substitution, column-oriented over U's rows: v[i] still
	// receives its u_ji·v[j] in ascending j. Its non-zero rows seed the
	// Lᵀ solve's reach.
	seeds := f.forward(v, f.uptr, f.uidx, f.uval, f.udiag, f.stack[:0])
	// Lᵀ (unit) back substitution, row-oriented over L's columns (again
	// the orientation that keeps ascending j per accumulator), highest
	// row first, on the rows reachable from the seeds through L's rows.
	for _, j := range seeds {
		reach[j>>6] |= 1 << (j & 63)
	}
	stack := seeds
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, i := range f.lrcol[f.lrptr[j]:f.lrptr[j+1]] {
			if w, b := &reach[i>>6], uint64(1)<<(i&63); *w&b == 0 {
				*w |= b
				stack = append(stack, i)
			}
		}
	}
	rows := stack[:0]
	for w := len(reach) - 1; w >= 0; w-- {
		for word := reach[w]; word != 0; {
			b := 63 - bits.LeadingZeros64(word)
			word &^= 1 << b
			i := w<<6 | b
			rows = append(rows, int32(i))
			lo, hi := f.lptr[i], f.lptr[i+1]
			if lo == hi {
				continue
			}
			s := v[i]
			val := f.lval[lo:hi]
			for p, j := range f.lidx[lo:hi] {
				s -= val[p] * v[j]
			}
			v[i] = s
		}
		reach[w] = 0
	}
	f.stack = rows
	f.permute(v, rows, f.prow)
	if dense {
		clear(reach)
		return nil
	}
	f.bpat = appendBits(f.bpat[:0], reach)
	return f.bpat
}

// update appends the product-form eta for a pivot that replaced basis
// row r with a column whose FTRAN'd image is w; w's non-zeros are
// copied from the rows of pat, the pattern ftran returned.
func (f *factor) update(r int, w []float64, pat []int32) {
	lo := int32(len(f.eidx))
	for _, i := range pat {
		if wi := w[i]; wi != 0 {
			f.eidx = append(f.eidx, i)
			f.eval = append(f.eval, wi)
		}
	}
	f.etas = append(f.etas, eta{r: int32(r), lo: lo, hi: int32(len(f.eidx)), piv: w[r]})
}
