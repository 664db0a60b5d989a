package ilp

// Differential suite: the sparse revised-simplex solver against the
// frozen dense-tableau reference (dense_test.go) and brute force. The dense
// solver is only a sound oracle while no LP hits its iteration cap, so
// the generated instances stay small enough that it converges in a few
// hundred pivots.

import (
	"math"
	"math/rand"
	"testing"
)

// randColumns draws n columns in the class Solve takes: a third of them
// binaries of either cost sign, the rest continuous at a non-negative
// cost.
func randColumns(r *rand.Rand, n int) Problem {
	p := Problem{Binary: make([]bool, n)}
	for i := 0; i < n; i++ {
		c := math.Round(20 * (r.Float64() - 0.6))
		if r.Intn(3) == 0 {
			p.Binary[i] = true
		} else {
			c = math.Abs(c)
		}
		p.C = append(p.C, c)
	}
	return p
}

// randMixedProblem draws a random mixed 0/1 problem: randColumns, sparse
// rows, and rhs values of both signs (negative rhs exercises the ≥ rows
// the fusion formulation builds, which force continuous columns up).
func randMixedProblem(r *rand.Rand) Problem {
	n := 2 + r.Intn(8)
	m := 1 + r.Intn(5)
	p := randColumns(r, n)
	for j := 0; j < m; j++ {
		row := make([]float64, n)
		for i := range row {
			if r.Intn(2) == 0 {
				row[i] = math.Round(10 * (r.Float64() - 0.2))
			}
		}
		p.A = append(p.A, denseRow(row))
		p.B = append(p.B, math.Round(8*float64(n)*(r.Float64()-0.1)))
	}
	return p
}

// checkAgainstDense solves p with both cores and fails the test on any
// disagreement in feasibility, optimality, or optimal objective. With
// fail set, the sparse solve runs again with a numerical failure forced
// at a node drawn from fail, which the retry must mend to the same
// verdict.
func checkAgainstDense(t *testing.T, trial int, p Problem, fail *rand.Rand) {
	t.Helper()
	de, err := SolveDense(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkOneAgainstDense(t, trial, p, sp, de)
	if fail == nil {
		return
	}
	testHook.failNode = 1 + fail.Intn(sp.Nodes)
	defer func() { testHook.failNode = 0 }()
	count := CountFailures()
	rec, err := Solve(p, Options{})
	failed, unrecovered := count()
	if err != nil {
		t.Fatal(err)
	}
	if failed != 1 || unrecovered != 0 {
		t.Fatalf("trial %d: failure forced at node %d: %d failed, %d unrecovered", trial, testHook.failNode, failed, unrecovered)
	}
	checkOneAgainstDense(t, trial, p, rec, de)
}

// checkOneAgainstDense holds one sparse result to the dense one.
func checkOneAgainstDense(t *testing.T, trial int, p Problem, sp, de Result) {
	t.Helper()
	if sp.Feasible != de.Feasible {
		t.Fatalf("trial %d: feasible sparse=%v dense=%v (p=%+v)", trial, sp.Feasible, de.Feasible, p)
	}
	if !sp.Feasible {
		return
	}
	if sp.Optimal != de.Optimal {
		t.Fatalf("trial %d: optimal sparse=%v dense=%v (p=%+v)", trial, sp.Optimal, de.Optimal, p)
	}
	tol := 1e-6 * (1 + math.Abs(de.Objective))
	if math.Abs(sp.Objective-de.Objective) > tol {
		t.Fatalf("trial %d: objective sparse=%.12g dense=%.12g (p=%+v)", trial, sp.Objective, de.Objective, p)
	}
	if !integerFeasible(p, sp.X) {
		t.Fatalf("trial %d: sparse solution infeasible: %v (p=%+v)", trial, sp.X, p)
	}
	if sp.Optimal && sp.Gap != 0 {
		t.Fatalf("trial %d: optimal result with gap %g", trial, sp.Gap)
	}
}

// TestSparseMatchesDenseRandom is the core differential property: on
// thousands of random mixed problems the sparse solver agrees with the
// frozen dense solver on feasibility and optimal objective, also when
// one node LP, drawn at random, fails and is solved again.
func TestSparseMatchesDenseRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	fail := rand.New(rand.NewSource(2))
	for trial := 0; trial < 3000; trial++ {
		checkAgainstDense(t, trial, randMixedProblem(r), fail)
	}
}

// relGapTols are the stop tolerances the oracle checks: the fusion
// pass's 1e-3, and 0.1, where the integer-cost instances of the
// generators stop early often enough for the check to have teeth.
var relGapTols = []float64{1e-3, 0.1}

// checkRelGap solves p at each of relGapTols and holds every result to
// the exact solve: the same feasibility verdict, an integer-feasible
// point within the tolerance of the optimum, and a valid bound. A
// solve the tolerance did not stop must be the exact solve unchanged.
// It reports how many solves stopped on the tolerance.
func checkRelGap(t *testing.T, p Problem) (stopped int) {
	t.Helper()
	exact, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range relGapTols {
		got, err := Solve(p, Options{RelGap: eps})
		if err != nil {
			t.Fatal(err)
		}
		if got.Feasible != exact.Feasible {
			t.Fatalf("RelGap %g: feasible %v, exact %v (p=%+v)", eps, got.Feasible, exact.Feasible, p)
		}
		if !got.WithinTol {
			if got.Optimal != exact.Optimal || got.Nodes != exact.Nodes || got.Objective != exact.Objective {
				t.Fatalf("RelGap %g did not stop, yet differs from the exact solve: %+v vs %+v (p=%+v)", eps, got, exact, p)
			}
			continue
		}
		stopped++
		if !exact.Optimal {
			continue // no optimum to hold the stop to
		}
		opt := exact.Objective
		switch {
		case got.Optimal:
			t.Fatalf("RelGap %g: both optimal and within tolerance", eps)
		case !integerFeasible(p, got.X):
			t.Fatalf("RelGap %g: infeasible point %v (p=%+v)", eps, got.X, p)
		case got.Objective != dot(p.C, got.X):
			t.Fatalf("RelGap %g: objective %.17g is not C·X %.17g", eps, got.Objective, dot(p.C, got.X))
		case relGap(got.Objective, opt) > eps+1e-9:
			t.Fatalf("RelGap %g: objective %.12g is %g above the optimum %.12g", eps, got.Objective, relGap(got.Objective, opt), opt)
		case got.BestBound > opt+1e-9:
			t.Fatalf("RelGap %g: bound %.12g above the optimum %.12g", eps, got.BestBound, opt)
		case got.Gap > eps || got.Gap != relGap(got.Objective, got.BestBound):
			t.Fatalf("RelGap %g: gap %g does not certify bound %.12g", eps, got.Gap, got.BestBound)
		}
	}
	return stopped
}

// TestRelGapCertified is the oracle for the relative-gap stop on
// TestSparseMatchesDenseRandom's generator.
func TestRelGapCertified(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	stopped := 0
	for trial := 0; trial < 3000; trial++ {
		stopped += checkRelGap(t, randMixedProblem(r))
	}
	if stopped == 0 {
		t.Fatal("no solve stopped on the tolerance; the oracle has no teeth")
	}
	t.Logf("%d solves stopped on the tolerance", stopped)
}

// stallLimits are the stall limits the oracle checks: small enough that
// the generator's few-dozen-node searches stop on them.
var stallLimits = []int{1, 8, 64}

// checkStallNodes solves p at each of stallLimits and holds every result
// to the exact solve: the same feasibility verdict, an integer-feasible
// point no better than the optimum, a valid bound, and a stop exactly
// StallNodes nodes after the last improvement. The search is the exact
// one up to the stop, so a solve the limit did not stop must be the
// exact solve unchanged. It reports how many solves stopped on the limit.
func checkStallNodes(t *testing.T, p Problem) (stopped int) {
	t.Helper()
	exact, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if exact.ImprovedAt > exact.Nodes || exact.Feasible != (exact.ImprovedAt > 0) {
		t.Fatalf("exact solve improved at node %d of %d, feasible %v", exact.ImprovedAt, exact.Nodes, exact.Feasible)
	}
	for _, stall := range stallLimits {
		got, err := Solve(p, Options{StallNodes: stall})
		if err != nil {
			t.Fatal(err)
		}
		if got.Feasible != exact.Feasible {
			t.Fatalf("StallNodes %d: feasible %v, exact %v (p=%+v)", stall, got.Feasible, exact.Feasible, p)
		}
		if !got.Feasible {
			continue
		}
		if !integerFeasible(p, got.X) || got.Objective != dot(p.C, got.X) {
			t.Fatalf("StallNodes %d: point %v, objective %.17g (p=%+v)", stall, got.X, got.Objective, p)
		}
		if got.Nodes == exact.Nodes {
			if got.Optimal != exact.Optimal || got.ImprovedAt != exact.ImprovedAt || got.Objective != exact.Objective {
				t.Fatalf("StallNodes %d did not stop, yet differs from the exact solve: %+v vs %+v (p=%+v)", stall, got, exact, p)
			}
			continue
		}
		stopped++
		if got.Optimal || got.Nodes-got.ImprovedAt != stall || got.Nodes > exact.Nodes {
			t.Fatalf("StallNodes %d: stopped after %d nodes (optimal %v), improved at %d; the exact solve ran %d (p=%+v)",
				stall, got.Nodes, got.Optimal, got.ImprovedAt, exact.Nodes, p)
		}
		if !exact.Optimal {
			continue // no optimum to hold the stop to
		}
		opt := exact.Objective
		switch {
		case got.Objective < opt-1e-9:
			t.Fatalf("StallNodes %d: objective %.12g below the optimum %.12g", stall, got.Objective, opt)
		case got.BestBound > opt+1e-9:
			t.Fatalf("StallNodes %d: bound %.12g above the optimum %.12g", stall, got.BestBound, opt)
		case got.Gap != relGap(got.Objective, got.BestBound):
			t.Fatalf("StallNodes %d: gap %g does not match bound %.12g", stall, got.Gap, got.BestBound)
		}
	}
	return stopped
}

// TestStallNodesBounded is the oracle for the stall stop on
// TestSparseMatchesDenseRandom's generator.
func TestStallNodesBounded(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	stopped := 0
	for trial := 0; trial < 3000; trial++ {
		stopped += checkStallNodes(t, randMixedProblem(r))
	}
	if stopped == 0 {
		t.Fatal("no solve stopped on the stall limit; the oracle has no teeth")
	}
	t.Logf("%d solves stopped on the stall limit", stopped)
}

// TestSparseFusionShapedExact runs the sparse solver over instances
// with the exact structure (and the awkward coefficient scaling: costs
// ~1e-6 against byte columns ~1e5) the fusion pass emits, pinning its
// objective against brute-force enumeration. The dense solver is only
// a one-sided oracle here: its absolute tableau tolerances lose exact
// optimality on this scaling — hunting for this suite's divergences is
// how that was discovered — so the sparse result must never be worse
// than dense, and must match brute force exactly.
func TestSparseFusionShapedExact(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 150; trial++ {
		p, warm := fusionShapedProblem(r, 3+r.Intn(8), 4)
		nBin := 0
		for _, b := range p.Binary {
			if b {
				nBin++
			}
		}
		if nBin > 12 {
			continue // brute force is 2^nBin LP solves; keep the oracle cheap
		}
		want := BruteForce(p)
		for _, o := range []Options{{}, {WarmStart: warm}} {
			sp, err := Solve(p, o)
			if err != nil {
				t.Fatal(err)
			}
			if sp.Feasible != want.Feasible {
				t.Fatalf("trial %d: feasible sparse=%v brute=%v", trial, sp.Feasible, want.Feasible)
			}
			if !sp.Feasible {
				continue
			}
			if !sp.Optimal {
				t.Fatalf("trial %d: optimality not proven: %+v", trial, sp)
			}
			if math.Abs(sp.Objective-want.Objective) > 1e-9*(1+math.Abs(want.Objective)) {
				t.Fatalf("trial %d: objective sparse=%.15g brute=%.15g (warm=%v)",
					trial, sp.Objective, want.Objective, o.WarmStart != nil)
			}
			if !integerFeasible(p, sp.X) {
				t.Fatalf("trial %d: sparse solution infeasible", trial)
			}
			de, err := SolveDense(p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if de.Feasible && sp.Objective > de.Objective+1e-9*(1+math.Abs(de.Objective)) {
				t.Fatalf("trial %d: sparse %.15g worse than dense %.15g", trial, sp.Objective, de.Objective)
			}
		}
	}
}

// TestBlandModeMatchesDense runs entire solves under Bland's rule
// (degenLimit 0 trips it on the first pivot) so the anti-cycling path
// is exercised end to end, not just on pathological instances.
func TestBlandModeMatchesDense(t *testing.T) {
	old := degenLimit
	degenLimit = 0
	defer func() { degenLimit = old }()
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		checkAgainstDense(t, trial, randMixedProblem(r), nil)
	}
}

// TestDegenerateTiesTerminate builds instances saturated with ties —
// identical rows, identical costs, quantized coefficients — where a
// naive ratio test stalls in degenerate pivots. With the Bland trip
// point lowered to a few pivots, these solves run through the
// anti-cycling rule and must still terminate at the brute-force
// optimum.
func TestDegenerateTiesTerminate(t *testing.T) {
	old := degenLimit
	degenLimit = 3
	defer func() { degenLimit = old }()
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		n := 3 + r.Intn(5)
		p := Problem{Binary: make([]bool, n)}
		for i := 0; i < n; i++ {
			p.C = append(p.C, -1) // all costs tie
			p.Binary[i] = true
		}
		// Several copies of the same row plus per-variable rows with the
		// same rhs: a maximally degenerate vertex.
		row := make([]float64, n)
		for i := range row {
			row[i] = 1
		}
		rhs := float64(1 + r.Intn(n))
		for k := 0; k < 3; k++ {
			p.A = append(p.A, denseRow(row))
			p.B = append(p.B, rhs)
		}
		for i := 0; i < n; i++ {
			one := make([]float64, n)
			one[i] = 1
			p.A = append(p.A, denseRow(one))
			p.B = append(p.B, 1)
		}
		got, err := Solve(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := BruteForce(p)
		if !got.Feasible || !got.Optimal || math.Abs(got.Objective-want.Objective) > 1e-6 {
			t.Fatalf("trial %d: got %+v, want objective %g", trial, got, want.Objective)
		}
	}
}

// TestInfeasibleAfterBranching pins the dual-simplex infeasibility exit
// inside branch-and-bound: the root LP is feasible (fractional), but
// every integer completion violates the equality-like row pair, so
// child nodes must be pruned as infeasible and the whole solve must
// report infeasible after exploring more than the root.
func TestInfeasibleAfterBranching(t *testing.T) {
	p := Problem{
		C:      []float64{-1, -2},
		A:      DenseRows([][]float64{{1, 1}, {-1, -1}}),
		B:      []float64{1.5, -1.5}, // x1 + x2 = 1.5 exactly
		Binary: []bool{true, true},
	}
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Feasible {
		t.Fatalf("expected integer infeasibility, got %+v", r)
	}
	if r.Nodes < 2 {
		t.Fatalf("expected branching before infeasibility proof, explored %d nodes", r.Nodes)
	}
}

// TestBudgetGapReported: a node budget that stops the search after the
// root, with a warm incumbent, must report a non-optimal result with a
// positive (possibly infinite) gap and the incumbent intact.
func TestBudgetGapReported(t *testing.T) {
	p := Problem{
		C:      []float64{-60, -100, -120},
		A:      DenseRows([][]float64{{10, 20, 30}}),
		B:      []float64{50},
		Binary: []bool{true, true, true},
	}
	r, err := Solve(p, Options{
		MaxNodes:  1,
		WarmStart: []float64{1, 1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible || r.Optimal || r.Nodes != 1 {
		t.Fatalf("expected a non-optimal incumbent after 1 node, got %+v", r)
	}
	if !(r.Gap > 0) {
		t.Errorf("expected positive optimality gap, got %g", r.Gap)
	}
}

// fusionShapedProblem builds an instance with the reduced Figure 8
// structure solveILP emits: binaries w_i/e_i with T'_i ≥ (TMax−TMin) −
// savings rows and per-region capacity rows, plus a greedy-flavoured
// integer warm start.
func fusionShapedProblem(r *rand.Rand, nRegions, window int) (Problem, []float64) {
	type region struct {
		tmax, tw, te float64
		dw, de       int64
		prod         int
	}
	regs := make([]region, nRegions)
	for i := range regs {
		regs[i] = region{
			tmax: 1e-4 * (0.5 + r.Float64()),
			tw:   1e-5 * r.Float64(),
			te:   1e-5 * r.Float64(),
			dw:   int64(1+r.Intn(64)) << 12,
			de:   int64(1+r.Intn(64)) << 12,
			prod: -1,
		}
		if i > 0 && r.Intn(3) != 0 {
			regs[i].prod = i - 1 - r.Intn(min(i, window))
		}
	}
	// Variable layout mirrors solveILP: w vars, e vars, then T'.
	wIdx := make([]int, nRegions)
	eIdx := make([]int, nRegions)
	vars := 0
	for i := range regs {
		wIdx[i] = -1
		if regs[i].dw > 0 && r.Intn(4) != 0 {
			wIdx[i] = vars
			vars++
		}
	}
	for i := range regs {
		eIdx[i] = -1
		if regs[i].prod >= 0 {
			eIdx[i] = vars
			vars++
		}
	}
	nv := vars + nRegions
	p := Problem{C: make([]float64, nv), Binary: make([]bool, nv)}
	for i := 0; i < vars; i++ {
		p.Binary[i] = true
	}
	for i := 0; i < nRegions; i++ {
		p.C[vars+i] = 1
	}
	for i, rg := range regs {
		row := make([]float64, nv)
		row[vars+i] = -1
		if wIdx[i] >= 0 {
			row[wIdx[i]] = -rg.tw
		}
		if eIdx[i] >= 0 {
			row[eIdx[i]] -= rg.te
		}
		p.A = append(p.A, denseRow(row))
		p.B = append(p.B, -rg.tmax)
	}
	capacity := int64(1+r.Intn(64)) << 14
	for k := range regs {
		row := make([]float64, nv)
		for j, rg := range regs {
			if wIdx[j] >= 0 {
				row[wIdx[j]] = float64(rg.dw)
			}
			if eIdx[j] >= 0 && rg.prod <= k && k <= j {
				row[eIdx[j]] += float64(rg.de)
			}
		}
		p.A = append(p.A, denseRow(row))
		p.B = append(p.B, float64(capacity))
	}
	// Greedy-ish warm start: take binaries while capacity allows.
	warm := make([]float64, nv)
	var used int64
	for j := range regs {
		if wIdx[j] >= 0 && used+regs[j].dw <= capacity {
			warm[wIdx[j]] = 1
			used += regs[j].dw
		}
	}
	for i, rg := range regs {
		tp := rg.tmax
		if wIdx[i] >= 0 && warm[wIdx[i]] == 1 {
			tp -= rg.tw
		}
		warm[vars+i] = math.Max(0, tp)
	}
	return p, warm
}

// TestNegativeCostContinuousRejected: a continuous column with a
// negative cost lies outside the class Problem states — its relaxation
// can be unbounded below — so Solve refuses it on every path, warm
// start or not, while the same cost on a binary is an ordinary problem.
func TestNegativeCostContinuousRejected(t *testing.T) {
	// min -x0 - 5x1 with only -x0 + x1 ≤ 1: a continuous x0 grows
	// without bound.
	p := Problem{
		C:      []float64{-1, -5},
		A:      DenseRows([][]float64{{-1, 1}}),
		B:      []float64{1},
		Binary: []bool{false, true},
	}
	for _, o := range []Options{{}, {WarmStart: []float64{0, 1}}} {
		if r, err := Solve(p, o); err == nil {
			t.Errorf("options %+v: solved a negative-cost continuous column: %+v", o, r)
		}
	}
	if r, err := SolveDense(p, Options{}); err == nil {
		t.Errorf("the dense reference solved a negative-cost continuous column: %+v", r)
	}
	p.Binary[0] = true
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Optimal || r.Objective != -6 {
		t.Fatalf("all-binary problem: %+v, want the optimum -6", r)
	}
}
