package ilp

// Kernel differentials: the sparse factorization, FTRAN/BTRAN, eta file
// and pivot-row kernels against the frozen dense reference
// (reference_test.go), compared on bits. The two zeros are identified:
// skipping a zero operand drops a ±0 term, which can only flip the sign
// of an exactly-zero result (see basis.go).

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

func compareVec(t testing.TB, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: entry %d: sparse %v (%#x) != dense %v (%#x)", label, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// compareFactors densifies the sparse L, U and pivots and holds them to
// the reference's m×m array entry by entry.
func compareFactors(t testing.TB, f *factor, ref *refFactor) {
	t.Helper()
	m := f.m
	for k := 0; k < m; k++ {
		if f.ipiv[k] != ref.ipiv[k] {
			t.Fatalf("ipiv[%d]: sparse %d != dense %d", k, f.ipiv[k], ref.ipiv[k])
		}
	}
	lu := make([]float64, m*m)
	for k := 0; k < m; k++ {
		lu[k*m+k] = f.udiag[k]
		prev := int32(k)
		for p := f.lptr[k]; p < f.lptr[k+1]; p++ {
			if f.lidx[p] <= prev {
				t.Fatalf("L column %d: row indices not ascending below the diagonal", k)
			}
			prev = f.lidx[p]
			lu[int(f.lidx[p])*m+k] = f.lval[p]
		}
		prev = int32(k)
		for p := f.uptr[k]; p < f.uptr[k+1]; p++ {
			if f.uidx[p] <= prev {
				t.Fatalf("U row %d: column indices not ascending right of the diagonal", k)
			}
			prev = f.uidx[p]
			lu[k*m+int(f.uidx[p])] = f.uval[p]
		}
	}
	for i := range lu {
		if !sameBits(lu[i], ref.lu[i]) {
			t.Fatalf("LU[%d,%d]: sparse %v != dense %v", i/m, i%m, lu[i], ref.lu[i])
		}
	}
}

// checkPattern holds a pattern a solve returned to a dense scan of its
// output: strictly ascending, and listing every non-zero.
func checkPattern(t testing.TB, label string, pat []int32, v []float64) {
	t.Helper()
	k := 0
	for i, x := range v {
		for k < len(pat) && int(pat[k]) < i {
			k++
		}
		if x != 0 && (k == len(pat) || int(pat[k]) != i) {
			t.Fatalf("%s: row %d is non-zero (%v) but not in the pattern %v", label, i, x, pat)
		}
	}
	for k := 1; k < len(pat); k++ {
		if pat[k] <= pat[k-1] {
			t.Fatalf("%s: pattern not strictly ascending: %v", label, pat)
		}
	}
}

// nonZeros lists the rows where v is non-zero: the input pattern of a
// sparse solve (a negative zero counts as zero).
func nonZeros(v []float64) []int32 {
	var nz []int32
	for i, x := range v {
		if x != 0 {
			nz = append(nz, int32(i))
		}
	}
	return nz
}

// checkKernels factorizes one basis with both implementations, then
// walks both through the same nEtas column replacements, comparing the
// factors, every entering column's FTRAN, and FTRAN/BTRAN/pivot rows of
// probe vectors along the way. Every solve runs twice, given no input
// pattern and given its input's, and the pattern the second returns is
// held to its output.
func checkKernels(t testing.TB, c *csc, basis []int32, nEtas int, rng *rand.Rand) {
	t.Helper()
	m := c.m
	var f factor
	var ref refFactor
	ok, refOK := f.factorize(c, basis), ref.factorize(c, basis)
	if ok != refOK {
		t.Fatalf("factorize: sparse ok=%v, dense ok=%v", ok, refOK)
	}
	if !ok {
		return
	}
	compareFactors(t, &f, &ref)

	basis = append([]int32(nil), basis...)
	basic := make(map[int32]bool, m)
	for _, j := range basis {
		basic[j] = true
	}
	a, b := make([]float64, m), make([]float64, m)
	alpha := make([]float64, c.n+m)
	probes := func(label string) {
		t.Helper()
		for trial := 0; trial < 6; trial++ {
			switch trial {
			case 0, 1: // unit vector: the pivot-row BTRAN
				for i := range a {
					a[i] = 0
				}
				a[rng.Intn(m)] = 1
			case 2, 3: // one column: the entering-column FTRAN
				c.scatter(rng.Intn(c.n+m), a)
			case 4: // dense, as the rhs and cost vectors are
				for i := range a {
					a[i] = rng.NormFloat64()
				}
			default: // half empty, with negative zeros
				for i := range a {
					a[i] = math.Copysign(0, -1)
					if rng.Intn(2) == 0 {
						a[i] = float64(rng.Intn(7) - 3)
					}
				}
			}
			in := append([]float64(nil), a...)
			copy(b, in)
			ref.ftran(b)
			for _, pat := range [][]int32{nil, nonZeros(in)} {
				copy(a, in)
				if out := f.ftran(a, pat); pat != nil {
					checkPattern(t, label+" ftran", out, a)
				} else if out != nil {
					t.Fatalf("%s ftran: a dense input returned a pattern", label)
				}
				compareVec(t, label+" ftran", a, b)
			}
			copy(b, in)
			ref.btran(b)
			for _, pat := range [][]int32{nil, nonZeros(in)} {
				copy(a, in)
				if out := f.btran(a, pat); pat != nil {
					checkPattern(t, label+" btran", out, a)
				} else if out != nil {
					t.Fatalf("%s btran: a dense input returned a pattern", label)
				}
				compareVec(t, label+" btran", a, b)
			}
			// Pivot row from rows vs column dots, over the same ρ.
			c.mulRow(b, alpha)
			for j := range alpha {
				if want := refDot(c, j, b); !sameBits(alpha[j], want) {
					t.Fatalf("%s pivot row: column %d: rows %v != dots %v", label, j, alpha[j], want)
				}
			}
		}
	}
	probes("fresh")
	for e := 0; e < nEtas; e++ {
		q := int32(rng.Intn(c.n + m))
		if basic[q] {
			continue
		}
		in := c.scatter(int(q), a)
		copy(b, a)
		pat := f.ftran(a, in)
		ref.ftran(b)
		compareVec(t, "entering column", a, b)
		checkPattern(t, "entering column", pat, a)
		r := 0
		for i := range a {
			if math.Abs(a[i]) > math.Abs(a[r]) {
				r = i
			}
		}
		if math.Abs(a[r]) < 1e-6 {
			continue
		}
		f.update(r, a, pat)
		ref.update(r, b)
		delete(basic, basis[r])
		basis[r], basic[q] = q, true
		if e%24 == 0 {
			probes("mid-eta")
		}
	}
	if len(f.etas) != len(ref.etas) {
		t.Fatalf("eta count: sparse %d != dense %d", len(f.etas), len(ref.etas))
	}
	probes("final")
}

// newCSC loads rows into a matrix of its own, outside any lpState.
func newCSC(rows []Row, n int) *csc {
	c := new(csc)
	c.load(rows, n)
	return c
}

// randSparseMatrix draws an m×n matrix with about perCol non-zeros a
// column on top of a non-zero diagonal. Values come from a small
// quantized set plus a few byte-count and microsecond magnitudes, so
// pivot ties (the first-maximum rule), exact cancellation and the
// fusion problems' scaling all occur.
func randSparseMatrix(rng *rand.Rand, m, n int, perCol float64) *csc {
	rows := make([][]float64, m)
	for i := range rows {
		rows[i] = make([]float64, n)
	}
	value := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return float64(int64(1+rng.Intn(64)) << 12)
		case 1:
			return -1e-5 * (0.1 + rng.Float64())
		}
		return []float64{-2, -1, 1, 2}[rng.Intn(4)]
	}
	for j := 0; j < n; j++ {
		if j < m {
			rows[j][j] = value()
		}
		for k := int(rng.ExpFloat64() * perCol); k > 0; k-- {
			rows[rng.Intn(m)][j] = value()
		}
	}
	return newCSC(DenseRows(rows), n)
}

// randBasis covers each row with its slack or its diagonal column (a
// structurally nonsingular choice, slack-heavy the way fusion bases
// are) and shuffles the column order so the row swaps get exercised.
func randBasis(rng *rand.Rand, c *csc, slackShare float64) []int32 {
	basis := make([]int32, c.m)
	for i := range basis {
		basis[i] = int32(c.n + i)
		if i < c.n && rng.Float64() >= slackShare {
			basis[i] = int32(i)
		}
	}
	rng.Shuffle(len(basis), func(a, b int) { basis[a], basis[b] = basis[b], basis[a] })
	return basis
}

// TestKernelsMatchDenseRandom: seeded random sparse bases, hypersparse
// to nearly dense, with 0–192 etas on top.
func TestKernelsMatchDenseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	factored := 0
	for trial := 0; trial < 120; trial++ {
		m := 1 + rng.Intn(60)
		n := 1 + rng.Intn(90)
		c := randSparseMatrix(rng, m, n, []float64{0.3, 1.5, 6, float64(m)}[trial%4])
		basis := randBasis(rng, c, []float64{0.9, 0.5, 0.1}[trial%3])
		var probe factor
		if probe.factorize(c, basis) {
			factored++
		}
		checkKernels(t, c, basis, []int{0, 7, 64, maxEtas}[trial%4], rng)
	}
	if factored < 90 {
		t.Fatalf("only %d of 120 random bases were nonsingular — the differential has no teeth", factored)
	}
}

// TestKernelsUnderflowedMultiplier pins the corner where a multiplier
// underflows to zero: the dense elimination skips the row update but
// leaves the raw entry in L's slot, and the solves read it.
func TestKernelsUnderflowedMultiplier(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	c := newCSC(DenseRows([][]float64{
		{1e9, 2, 0},
		{tiny, 1, 3},
		{0, 4, 1},
	}), 3)
	basis := []int32{0, 1, 2}
	var f factor
	var ref refFactor
	if !f.factorize(c, basis) || !ref.factorize(c, basis) {
		t.Fatal("basis must factorize")
	}
	compareFactors(t, &f, &ref)
	if f.lptr[1] != 1 || f.lval[0] != tiny {
		t.Fatalf("raw multiplier not kept in L: lptr=%v lval=%v", f.lptr, f.lval)
	}
	for _, v := range [][]float64{{1e300, 0, 0}, {1, 1, 1}, {0, 0, 1e300}} {
		for _, pat := range [][]int32{nil, nonZeros(v)} {
			a, b := append([]float64(nil), v...), append([]float64(nil), v...)
			f.ftran(a, pat)
			ref.ftran(b)
			compareVec(t, "ftran", a, b)
			a, b = append(a[:0], v...), append(b[:0], v...)
			f.btran(a, pat)
			ref.btran(b)
			compareVec(t, "btran", a, b)
		}
	}
}

// checkKernelsOnProblem runs the kernel differential on bases the
// simplex itself reaches on p: the root optimum and the optima of a
// short dive that rounds the first fractional binary each time.
// Exported to the external tests (export_test.go), which feed it real
// fusion instances.
func checkKernelsOnProblem(t testing.TB, p Problem, seed int64) {
	t.Helper()
	ls := new(lpState)
	ls.init(p)
	ls.installSlackBasis()
	ls.computeXB()
	ls.computeDuals()
	rng := rand.New(rand.NewSource(seed))
	bases := 0
	for depth := 0; depth < 4; depth++ {
		if ls.dualSimplex(20000) != lpOptimal {
			break
		}
		if r, _ := leavingRowFull(ls); r >= 0 {
			t.Fatalf("depth %d: optimal, but row %d violates its bounds", depth, r)
		}
		bases++
		checkKernels(t, &ls.c, ls.basis, []int{0, 48, maxEtas, 16}[depth], rng)
		ls.extract()
		cnt := make([]int32, ls.n)
		j := ls.selectBranch(nil, nil, cnt, cnt)
		if want := selectBranchFull(ls.x, p.Binary, nil, nil, cnt, cnt); j != want {
			t.Fatalf("depth %d: branching on column %d, the full scan picks %d", depth, j, want)
		}
		if j < 0 {
			break
		}
		ls.fixBinary(j, math.Round(ls.x[j]))
	}
	if bases == 0 {
		t.Fatal("root LP did not solve")
	}
}

// freshXBDrift recomputes the basic values from scratch (computeXB) and
// returns the row where they differ most from the ones the pivots kept,
// and by how much beyond the feasibility tolerance (≤ 0 when within
// it). The state is left as it was.
func freshXBDrift(s *lpState) (row int, excess float64) {
	kept := append([]float64(nil), s.xB...)
	s.computeXB()
	row, excess = -1, math.Inf(-1)
	for i, v := range s.xB {
		if e := math.Abs(v-kept[i]) - feasTolFor(v); e > excess {
			row, excess = i, e
		}
	}
	copy(s.xB, kept)
	for i := range s.xB {
		s.checkRow(i)
	}
	return row, excess
}

// TestSelectBranchMatchesFullScan holds the branching rule's scan over
// basic binaries to the full scan of every column, on the LP optima of
// random dives: most-fractional with unseen pseudo-costs, product
// scoring with seen ones. Each optimum is also held to the full
// leaving-row scan (no row may still violate its bounds) and to a fresh
// computeXB: a dive only pins a basic binary, which moves no nonbasic
// value, so the basic values the pivots kept must still be B⁻¹(b − N·x_N)
// within the feasibility tolerance. The chosen column must be basic: a
// nonbasic binary sits on 0 or 1.
func TestSelectBranchMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	compared, optima := 0, 0
	for trial := 0; trial < 6000; trial++ {
		p := randMixedProblem(rng)
		ls := new(lpState)
		ls.init(p)
		ls.installSlackBasis()
		ls.computeXB()
		ls.computeDuals()
		unseen := make([]int32, ls.n)
		seen := make([]int32, ls.n)
		pcDn, pcUp := make([]float64, ls.n), make([]float64, ls.n)
		for j := range seen {
			seen[j] = 1 + int32(rng.Intn(3))
			pcDn[j], pcUp[j] = rng.Float64(), rng.Float64()
		}
		for depth := 0; depth < 6; depth++ {
			if ls.dualSimplex(maxSimplexIters) != lpOptimal {
				break
			}
			if r, _ := leavingRowFull(ls); r >= 0 {
				t.Fatalf("trial %d depth %d: optimal, but row %d violates its bounds", trial, depth, r)
			}
			if r, e := freshXBDrift(ls); e > 0 {
				t.Fatalf("trial %d depth %d: basic value of row %d is %g beyond tolerance of a fresh computeXB", trial, depth, r, e)
			}
			optima++
			ls.extract()
			j := ls.selectBranch(nil, nil, unseen, unseen)
			if want := selectBranchFull(ls.x, p.Binary, nil, nil, unseen, unseen); j != want {
				t.Fatalf("trial %d depth %d: most fractional %d, the full scan picks %d", trial, depth, j, want)
			}
			got := ls.selectBranch(pcDn, pcUp, seen, seen)
			if want := selectBranchFull(ls.x, p.Binary, pcDn, pcUp, seen, seen); got != want {
				t.Fatalf("trial %d depth %d: pseudo-cost pick %d, the full scan picks %d", trial, depth, got, want)
			}
			if j < 0 {
				break
			}
			compared++
			if ls.pos[j] < 0 {
				t.Fatalf("trial %d depth %d: branching on nonbasic column %d at %v", trial, depth, j, ls.x[j])
			}
			ls.fixBinary(j, math.Round(ls.x[j]))
		}
	}
	if compared < 400 {
		t.Fatalf("%d fractional optima compared — the test has no teeth", compared)
	}
	t.Logf("%d optima, %d of them fractional", optima, compared)
}

// fakeState is the slice of lpState the snapshot deltas read, on the
// all-slack basis.
func fakeState(m, n int) *lpState {
	s := &lpState{m: m, n: n, N: n + m}
	s.basis = make([]int32, m)
	s.pos = make([]int32, s.N)
	s.atUp = make([]uint64, (s.N+63)/64)
	s.cost = make([]float64, s.N)
	s.lo = make([]float64, s.N)
	s.up = make([]float64, s.N)
	s.loTol = make([]float64, s.N)
	s.upTol = make([]float64, s.N)
	s.xB = make([]float64, m)
	s.infeas = make([]uint64, (m+63)/64)
	s.rowDirty = make([]bool, m)
	s.colDirty = make([]bool, s.N)
	s.basic = make([]uint64, (n+63)/64)
	s.slackBasis()
	return s
}

// fullDelta is the delta record returns, by the full O(m+N) diff of the
// state against the reference, which it leaves as it is.
func fullDelta(sn *snapshot, fix int32, s *lpState) []int32 {
	d := []int32{fix, 0}
	for i, j := range s.basis {
		if sn.basis[i] != j {
			d = append(d, int32(i), j)
		}
	}
	d[1] = int32(len(d)-2) / 2
	for j := 0; j < s.N; j++ {
		if up := s.pos[j] < 0 && s.isUp(j); up != (sn.up[j>>6]&(1<<(j&63)) != 0) {
			e := int32(j) << 1
			if up {
				e |= 1
			}
			d = append(d, e)
		}
	}
	return d
}

// TestNodeDeltasMaterialise grows a random branch-and-bound tree over a
// basis that changes through the solver's own pivot, reinstall and
// slack-install methods, and checks that every delta record produces
// equals the full diff against the reference, that the basic-column
// bitset follows the basis, and that every node record, materialised by
// walking to the root, reproduces the full snapshot taken when it was
// recorded: basis, effective at-upper bitset and fixing path.
func TestNodeDeltasMaterialise(t *testing.T) {
	const m, n = 23, 41
	rng := rand.New(rand.NewSource(11))
	type full struct {
		rec   *nodeRec
		basis []int32
		up    []uint64
		fixes []int8 // per structural column: the fixed value, or -1
	}
	s := fakeState(m, n)
	sn := &s.ref
	sn.reset(m, n)
	snap := func(parent *full, fix int32) *full {
		fl := &full{basis: append([]int32(nil), s.basis...), up: make([]uint64, len(sn.up)), fixes: make([]int8, n)}
		for j := range fl.fixes {
			fl.fixes[j] = -1
		}
		for j := 0; j < s.N; j++ {
			if s.pos[j] < 0 && s.isUp(j) {
				fl.up[j>>6] |= 1 << (j & 63)
			}
		}
		for j := 0; j < n; j++ {
			if basic := s.basic[j>>6]&(1<<(j&63)) != 0; basic != (s.pos[j] >= 0) {
				t.Fatalf("column %d: basic bit %v, basis row %d", j, basic, s.pos[j])
			}
		}
		var prec *nodeRec
		if parent != nil {
			prec = parent.rec
			copy(fl.fixes, parent.fixes)
		}
		if fix >= 0 {
			fl.fixes[fix>>1] = int8(fix & 1)
		}
		want := fullDelta(sn, fix, s)
		fl.rec = sn.record(prec, fix, s)
		if !slices.Equal(fl.rec.delta, want) {
			t.Fatalf("delta %v, the full diff %v", fl.rec.delta, want)
		}
		return fl
	}
	pivot := func() {
		r, q := rng.Intn(m), rng.Intn(s.N)
		if s.pos[q] >= 0 {
			return
		}
		s.pivot(r, q, rng.Intn(2) == 0)
	}
	nodes := []*full{snap(nil, -1)}
	for len(nodes) < 200 {
		// Jump to a random recorded node (a pop), reinstall its snapshot
		// — or, as when that basis fails to factorize, the all-slack
		// basis — pivot a little, branch.
		parent := nodes[rng.Intn(len(nodes))]
		sn.materialise(parent.rec, n)
		if rng.Intn(8) == 0 {
			s.slackBasis()
		} else {
			s.adoptRef()
		}
		for dive := 0; dive < 1+rng.Intn(3); dive++ {
			for k := rng.Intn(5); k > 0; k-- {
				pivot()
			}
			if rng.Intn(4) == 0 { // a stale flag on a basic column must not leak
				setBit(s.atUp, int(s.basis[rng.Intn(m)]), true)
			}
			// Like the solver, never fix a variable twice on one path.
			j := rng.Intn(n)
			for tries := 0; parent.fixes[j] >= 0 && tries < 4*n; tries++ {
				j = rng.Intn(n)
			}
			if parent.fixes[j] >= 0 {
				break
			}
			parent = snap(parent, int32(j)<<1|int32(rng.Intn(2)))
			nodes = append(nodes, parent)
		}
	}
	for k, fl := range nodes {
		sn.materialise(fl.rec, n)
		for i := range fl.basis {
			if sn.basis[i] != fl.basis[i] {
				t.Fatalf("node %d: basis row %d materialised %d, snapshot %d", k, i, sn.basis[i], fl.basis[i])
			}
		}
		for w := range fl.up {
			if sn.up[w] != fl.up[w] {
				t.Fatalf("node %d: at-upper word %d materialised %#x, snapshot %#x", k, w, sn.up[w], fl.up[w])
			}
		}
		got := make([]int8, n)
		for j := range got {
			got[j] = -1
		}
		for r := fl.rec; r != nil && r.delta[0] != noFix; r = r.parent {
			j, v := unfix(r.delta[0])
			got[j] = int8(v)
		}
		for j := range got {
			if got[j] != fl.fixes[j] {
				t.Fatalf("node %d: column %d fixed to %d by the walk, %d in the snapshot", k, j, got[j], fl.fixes[j])
			}
		}
	}
}

// leavingRowFull is the leaving-row scan over every row, not only the
// ones infeas marks.
func leavingRowFull(s *lpState) (r int, dir float64) {
	r = -1
	worst := 0.0
	for i := 0; i < s.m; i++ {
		j := s.basis[i]
		v := s.xB[i]
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
	return r, dir
}

// pivotRowColsFull lists the pivot row's columns as the sort did: the
// structural columns of every row where ρ is non-zero, sorted, then
// those rows' slacks.
func pivotRowColsFull(s *lpState) []int32 {
	seen := map[int32]bool{}
	var cols, slacks []int32
	for i, ri := range s.rho {
		if ri == 0 {
			continue
		}
		for _, j := range s.c.rows[i].Idx {
			if !seen[j] {
				seen[j] = true
				cols = append(cols, j)
			}
		}
		slacks = append(slacks, int32(s.n+i))
	}
	slices.Sort(cols)
	return append(cols, slacks...)
}

// extractFull is extract's two O(n) loops: every column's value, then
// the objective over all of them.
func extractFull(s *lpState) (float64, []float64) {
	x := make([]float64, s.n)
	for j := range x {
		if p := s.pos[j]; p >= 0 {
			x[j] = s.xB[p]
			if x[j] < s.lo[j] {
				x[j] = s.lo[j]
			}
			if x[j] > s.up[j] {
				x[j] = s.up[j]
			}
		} else {
			x[j] = s.val(j)
		}
	}
	var obj float64
	for j := range x {
		obj += s.cost[j] * x[j]
	}
	return obj, x
}

// checkPivot holds every sweep a pivot replaced to its full version, on
// the state the dual simplex built for leaving row r with its entering
// column's FTRAN in s.w and that solve's pattern in pat: the leaving row
// in both pricing modes, the infeasible-row bitset it reads, ρ's non-zero
// list, the pivot row's columns and values, the FTRAN pattern, and
// extract's objective and solution.
func checkPivot(s *lpState, r int, pat []int32) error {
	if got, _ := s.leavingRow(); got != r {
		return fmt.Errorf("leaving row %d, but leavingRow now picks %d", r, got)
	}
	for i, j := range s.basis {
		v := s.xB[i]
		if want := v < s.loTol[j] || v > s.upTol[j]; want != (s.infeas[i>>6]&(1<<(i&63)) != 0) {
			return fmt.Errorf("row %d: infeasible bit %v, basic value %v in [%v, %v]", i, !want, v, s.loTol[j], s.upTol[j])
		}
	}
	bland := s.bland
	for _, mode := range []bool{bland, !bland} {
		s.bland = mode
		gr, gd := s.leavingRow()
		wr, wd := leavingRowFull(s)
		if gr != wr || gd != wd {
			s.bland = bland
			return fmt.Errorf("bland=%v: leaving row %d dir %v, the full scan picks %d dir %v", mode, gr, gd, wr, wd)
		}
	}
	s.bland = bland
	var nz []int32
	for i, ri := range s.rho {
		if ri != 0 {
			nz = append(nz, int32(i))
		}
	}
	if !slices.Equal(s.rhoNZ, nz) {
		return fmt.Errorf("ρ's non-zero rows %v, a dense scan finds %v", s.rhoNZ, nz)
	}
	if want := pivotRowColsFull(s); !slices.Equal(s.rowCols, want) {
		return fmt.Errorf("pivot row columns %v, the sorted list %v", s.rowCols, want)
	}
	alpha := make([]float64, s.N)
	s.c.mulRow(s.rho, alpha)
	for j, want := range alpha {
		if !sameBits(s.alpha[j], want) {
			return fmt.Errorf("pivot row: column %d: %v, the full product %v", j, s.alpha[j], want)
		}
	}
	for k, i := range pat {
		if k > 0 && i <= pat[k-1] {
			return fmt.Errorf("FTRAN pattern not ascending: %v", pat)
		}
	}
	for i, wi := range s.w {
		if _, in := slices.BinarySearch(pat, int32(i)); wi != 0 && !in {
			return fmt.Errorf("FTRAN: row %d is non-zero (%v) outside the pattern %v", i, wi, pat)
		}
	}
	wantObj, wantX := extractFull(s)
	if obj := s.extract(); !sameBits(obj, wantObj) {
		return fmt.Errorf("extract: objective %v, the full loops %v", obj, wantObj)
	}
	for j, want := range wantX {
		if !sameBits(s.x[j], want) {
			return fmt.Errorf("extract: x[%d] = %v, the full loops %v", j, s.x[j], want)
		}
	}
	return nil
}

// checkEveryPivot runs checkPivot at every dual simplex pivot until
// the returned function is called; that reports the pivots checked and
// the first failure. Safe for concurrent solves.
func checkEveryPivot() (restore func() (int, error)) {
	var mu sync.Mutex
	var pivots int
	var first error
	testHook.pivot = func(s *lpState, r int, pat []int32) {
		err := checkPivot(s, r, pat)
		mu.Lock()
		defer mu.Unlock()
		pivots++
		if first == nil && err != nil {
			first = fmt.Errorf("pivot %d: %w", pivots, err)
		}
	}
	return func() (int, error) {
		testHook.pivot = nil
		return pivots, first
	}
}

// TestPivotSweepsMatchFullScans runs checkPivot — which holds the
// leaving row to the full scan in both pricing modes — at every pivot
// of whole branch-and-bound solves on the random mixed and
// fusion-shaped generators.
func TestPivotSweepsMatchFullScans(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	restore := checkEveryPivot()
	for trial := 0; trial < 600; trial++ {
		p := randMixedProblem(rng)
		o := Options{}
		if trial%3 == 0 {
			p, o.WarmStart = fusionShapedProblem(rng, 4+rng.Intn(16), 1+rng.Intn(3))
		}
		if _, err := Solve(p, o); err != nil {
			t.Fatal(err)
		}
	}
	pivots, err := restore()
	if err != nil {
		t.Fatal(err)
	}
	if pivots < 5000 {
		t.Fatalf("only %d pivots checked", pivots)
	}
	t.Logf("%d pivots checked", pivots)
}
