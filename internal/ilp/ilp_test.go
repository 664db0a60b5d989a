package ilp

import (
	"math"
	"math/rand"
	"testing"
)

func TestSimplexBasicLP(t *testing.T) {
	// max x+y s.t. x+2y<=4, 3x+y<=6, x,y>=0 → min -(x+y); optimum at
	// (8/5, 6/5), objective -2.8.
	lp := simplex([]float64{-1, -1},
		[][]float64{{1, 2}, {3, 1}},
		[]float64{4, 6}, 1000)
	if !lp.feasible || lp.unbounded {
		t.Fatalf("lp: %+v", lp)
	}
	if math.Abs(lp.objective-(-2.8)) > 1e-6 {
		t.Errorf("objective = %f, want -2.8", lp.objective)
	}
}

func TestSimplexInfeasible(t *testing.T) {
	// x <= -1, x >= 0 is infeasible.
	lp := simplex([]float64{1}, [][]float64{{1}}, []float64{-1}, 1000)
	if lp.feasible {
		t.Error("expected infeasible")
	}
}

func TestSimplexUnbounded(t *testing.T) {
	// min -x with only x - y <= 1 (both free to grow) is unbounded.
	lp := simplex([]float64{-1, 0}, [][]float64{{1, -1}}, []float64{1}, 1000)
	if !lp.unbounded {
		t.Errorf("expected unbounded, got %+v", lp)
	}
}

func TestSimplexNegativeRHS(t *testing.T) {
	// x >= 2 expressed as -x <= -2; min x → 2.
	lp := simplex([]float64{1}, [][]float64{{-1}}, []float64{-2}, 1000)
	if !lp.feasible || math.Abs(lp.objective-2) > 1e-6 {
		t.Errorf("lp: %+v, want objective 2", lp)
	}
}

func TestSimplexDegenerate(t *testing.T) {
	// Degenerate vertex: several redundant constraints through origin.
	lp := simplex([]float64{-1, -1},
		[][]float64{{1, 0}, {1, 0}, {0, 1}, {1, 1}},
		[]float64{1, 1, 1, 1}, 1000)
	if !lp.feasible || math.Abs(lp.objective-(-1)) > 1e-6 {
		t.Errorf("objective = %f, want -1", lp.objective)
	}
}

func TestSolveKnapsack(t *testing.T) {
	// Classic 0/1 knapsack: values 60,100,120, weights 10,20,30, cap 50 →
	// best 220 (items 2,3). As min of negative value.
	p := Problem{
		C:      []float64{-60, -100, -120},
		A:      DenseRows([][]float64{{10, 20, 30}}),
		B:      []float64{50},
		Binary: []bool{true, true, true},
	}
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible || !r.Optimal {
		t.Fatalf("result: %+v", r)
	}
	if math.Abs(r.Objective-(-220)) > 1e-6 {
		t.Errorf("objective = %f, want -220", r.Objective)
	}
	if r.X[0] != 0 || r.X[1] != 1 || r.X[2] != 1 {
		t.Errorf("x = %v", r.X)
	}
}

func TestSolveMixedIntegerWithContinuous(t *testing.T) {
	// min -3x1 + 2y s.t. x1 binary, 0<=y, x1 - y <= 0.5 (a ≥ row
	// forcing y up) and x1 + y <= 1.5 → x1=1, y=0.5, objective -2.
	p := Problem{
		C:      []float64{-3, 2},
		A:      DenseRows([][]float64{{1, -1}, {1, 1}}),
		B:      []float64{0.5, 1.5},
		Binary: []bool{true, false},
	}
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Optimal || math.Abs(r.Objective-(-2)) > 1e-6 || r.X[0] != 1 || math.Abs(r.X[1]-0.5) > 1e-9 {
		t.Errorf("result: %+v", r)
	}
}

func TestSolveMatchesBruteForceRandom(t *testing.T) {
	// Property: on random small 0/1 problems, B&B matches brute force.
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 3 + r.Intn(5) // 3..7 binaries
		m := 1 + r.Intn(3)
		p := Problem{Binary: make([]bool, n)}
		for i := 0; i < n; i++ {
			p.C = append(p.C, math.Round(20*(r.Float64()-0.7)))
			p.Binary[i] = true
		}
		for j := 0; j < m; j++ {
			row := make([]float64, n)
			for i := range row {
				row[i] = math.Round(10 * r.Float64())
			}
			p.A = append(p.A, denseRow(row))
			p.B = append(p.B, math.Round(5*float64(n)*r.Float64()))
		}
		got, err := Solve(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := BruteForce(p)
		if got.Feasible != want.Feasible {
			t.Fatalf("trial %d: feasible %v vs brute %v (p=%+v)", trial, got.Feasible, want.Feasible, p)
		}
		if got.Feasible && math.Abs(got.Objective-want.Objective) > 1e-6 {
			t.Fatalf("trial %d: objective %f vs brute %f (p=%+v)", trial, got.Objective, want.Objective, p)
		}
	}
}

func TestBudgetReturnsIncumbent(t *testing.T) {
	// With a one-node budget, which the root LP's fractional optimum
	// leaves unproven, and a warm start, Solve must return the warm
	// start as a non-optimal incumbent.
	p := Problem{
		C:      []float64{-60, -100, -120},
		A:      DenseRows([][]float64{{10, 20, 30}}),
		B:      []float64{50},
		Binary: []bool{true, true, true},
	}
	warm := []float64{1, 1, 0} // value 160, feasible
	r, err := Solve(p, Options{
		MaxNodes:  1,
		WarmStart: warm,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible || r.Optimal {
		t.Fatalf("expected non-optimal incumbent, got %+v", r)
	}
	if math.Abs(r.Objective-(-160)) > 1e-6 {
		t.Errorf("incumbent objective = %f, want -160", r.Objective)
	}
}

// TestRelGapStopsAtRoot: when the root LP bound already certifies the
// warm start within RelGap, the search stops after that one node and
// returns the warm start bit for bit, where the exact solve branches.
func TestRelGapStopsAtRoot(t *testing.T) {
	// Three items worth 1000 fill three of 3.5 units; the LP adds a
	// quarter of the fourth (value 1.5, weight 2), so the root bound is
	// -3000.375 and the warm start -3000 is 1.25e-4 from it.
	p := Problem{
		C:      []float64{-1000, -1000, -1000, -1.5},
		A:      DenseRows([][]float64{{1, 1, 1, 2}}),
		B:      []float64{3.5},
		Binary: []bool{true, true, true, true},
	}
	warm := []float64{1, 1, 1, 0}
	exact, err := Solve(p, Options{WarmStart: warm})
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Optimal || exact.Nodes < 2 {
		t.Fatalf("exact solve %+v; the test needs a root that branches", exact)
	}
	r, err := Solve(p, Options{WarmStart: warm, RelGap: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if !r.WithinTol || r.Optimal || r.Nodes != 1 {
		t.Fatalf("got %+v; want a tolerance stop at node 1", r)
	}
	for i := range warm {
		if math.Float64bits(r.X[i]) != math.Float64bits(warm[i]) {
			t.Fatalf("X = %v, want the warm start %v", r.X, warm)
		}
	}
	if r.Objective != dot(p.C, warm) {
		t.Errorf("objective %v, want %v", r.Objective, dot(p.C, warm))
	}
	if math.Abs(r.BestBound-(-3000.375)) > 1e-9 || r.Gap != relGap(r.Objective, r.BestBound) || r.Gap > 1e-3 {
		t.Errorf("bound %.12g gap %g; want the root bound -3000.375 and its gap", r.BestBound, r.Gap)
	}
}

func TestWarmStartValidated(t *testing.T) {
	// An infeasible warm start must be ignored.
	p := Problem{
		C:      []float64{-1},
		A:      DenseRows([][]float64{{1}}),
		B:      []float64{0.5},
		Binary: []bool{true},
	}
	r, err := Solve(p, Options{WarmStart: []float64{1}}) // violates x<=0.5
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible || r.Objective != 0 {
		t.Errorf("expected x=0 optimum, got %+v", r)
	}
}

func TestValidateErrors(t *testing.T) {
	_, err := Solve(Problem{C: []float64{1}, A: DenseRows([][]float64{{1, 2}}), B: []float64{1}}, Options{})
	if err == nil {
		t.Error("expected dimension error")
	}
	_, err = Solve(Problem{C: []float64{1}, A: DenseRows([][]float64{{1}}), B: []float64{1, 2}}, Options{})
	if err == nil {
		t.Error("expected rhs mismatch error")
	}
	_, err = Solve(Problem{C: []float64{1, 1}, A: DenseRows([][]float64{{1, 1}}), B: []float64{1}, Binary: []bool{true}}, Options{})
	if err == nil {
		t.Error("expected binary-flags mismatch error")
	}
	for name, row := range map[string]Row{
		"unsorted":  {Idx: []int32{1, 0}, Val: []float64{1, 1}},
		"duplicate": {Idx: []int32{0, 0}, Val: []float64{1, 1}},
		"ragged":    {Idx: []int32{0, 1}, Val: []float64{1}},
	} {
		if _, err := Solve(Problem{C: []float64{1, 1}, A: []Row{row}, B: []float64{1}}, Options{}); err == nil {
			t.Errorf("%s row: expected an error", name)
		}
	}
}

// denseRow converts one dense row to the sparse form.
func denseRow(row []float64) Row { return DenseRows([][]float64{row})[0] }

func TestGreedyKnapsack(t *testing.T) {
	chosen := GreedyKnapsack([]float64{60, 100, 120}, []float64{10, 20, 30}, 50)
	// Density order: 60/10=6, 100/20=5, 120/30=4 → picks 0,1 then 2
	// doesn't fit → {0,1}.
	if len(chosen) != 2 || chosen[0] != 0 || chosen[1] != 1 {
		t.Errorf("chosen = %v", chosen)
	}
	// Zero-value and zero-weight items.
	c2 := GreedyKnapsack([]float64{0, 5}, []float64{1, 0}, 0)
	if len(c2) != 1 || c2[0] != 1 {
		t.Errorf("free item must be taken: %v", c2)
	}
}

func TestSolveInfeasibleProblem(t *testing.T) {
	p := Problem{
		C:      []float64{1},
		A:      DenseRows([][]float64{{1}, {-1}}),
		B:      []float64{0.4, -0.6}, // 0.6 <= x <= 0.4: infeasible
		Binary: []bool{true},
	}
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Feasible {
		t.Errorf("expected infeasible, got %+v", r)
	}
}

func TestNodesCounted(t *testing.T) {
	p := Problem{
		C:      []float64{-1, -1, -1},
		A:      DenseRows([][]float64{{1, 1, 1}}),
		B:      []float64{1.5},
		Binary: []bool{true, true, true},
	}
	r, _ := Solve(p, Options{})
	if r.Nodes < 1 {
		t.Error("node count missing")
	}
	if !r.Optimal || r.Objective != -1 {
		t.Errorf("result: %+v", r)
	}
}

// TestFailedNodeRecovered: a node LP that fails numerically is solved
// again from the slack basis, and the search goes on as if it had not
// failed. A failure at the root and one mid-search must both end in the
// clean solve's objective and its proof.
func TestFailedNodeRecovered(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	p, _ := fusionShapedProblem(r, 9, 4)
	clean, err := Solve(p, Options{})
	if err != nil || !clean.Optimal || clean.Nodes < 4 {
		t.Fatalf("need a proven multi-node instance, got %+v (%v)", clean, err)
	}
	defer func() { testHook.failNode = 0 }()
	for _, node := range []int{1, 3} {
		testHook.failNode = node
		count := CountFailures()
		got, err := Solve(p, Options{})
		failed, unrecovered := count()
		if err != nil {
			t.Fatal(err)
		}
		if failed != 1 || unrecovered != 0 {
			t.Fatalf("failure at node %d: %d failed, %d unrecovered; want 1 failure, recovered", node, failed, unrecovered)
		}
		if !got.Optimal || got.Objective != clean.Objective || got.BestBound != clean.Objective || got.Gap != 0 {
			t.Errorf("failure at node %d: %+v; want the clean solve's proven optimum %.17g", node, got, clean.Objective)
		}
		if !integerFeasible(p, got.X) {
			t.Errorf("failure at node %d: infeasible point %v", node, got.X)
		}
	}
}

// TestUnrecoveredFailureStopsSearch: when the retry fails too, the
// search stops as the node budget stops it. The incumbent stands, nothing is
// proven, and the failed node's bound stays in BestBound, which must
// not exceed the optimum.
func TestUnrecoveredFailureStopsSearch(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	p, warm := fusionShapedProblem(r, 9, 4)
	clean, err := Solve(p, Options{})
	if err != nil || !clean.Optimal || clean.Nodes < 4 {
		t.Fatalf("need a proven multi-node instance, got %+v (%v)", clean, err)
	}
	// The open bound after one node, as a cut-off there reports it: the
	// root's LP optimum, which both of its children carry.
	cut, err := Solve(p, Options{WarmStart: warm, MaxNodes: 1})
	if err != nil || !(cut.BestBound < clean.Objective-1e-9) {
		t.Fatalf("instance too easy: the bound after one node (%g, %v) already certifies %g", cut.BestBound, err, clean.Objective)
	}
	if cut.ImprovedAt != 0 {
		t.Fatalf("the root improved on the warm start; the test needs the warm start as the incumbent at node 2")
	}

	testHook.failNode, testHook.failRetry = 2, true
	defer func() { testHook.failNode, testHook.failRetry = 0, false }()
	count := CountFailures()
	got, err := Solve(p, Options{WarmStart: warm})
	failed, unrecovered := count()
	if err != nil {
		t.Fatal(err)
	}
	if failed != 1 || unrecovered != 1 {
		t.Fatalf("%d failed, %d unrecovered; want the one forced failure, unrecovered", failed, unrecovered)
	}
	if got.Optimal || got.WithinTol || got.Nodes != 2 {
		t.Fatalf("got %+v; want an unproven stop at node 2", got)
	}
	if !got.Feasible || got.Objective != dot(p.C, warm) {
		t.Errorf("objective %.17g, want the warm start's %.17g", got.Objective, dot(p.C, warm))
	}
	if got.BestBound != cut.BestBound || got.BestBound > clean.Objective {
		t.Errorf("bound %.17g, want the failed node's %.17g ≤ the optimum %.17g", got.BestBound, cut.BestBound, clean.Objective)
	}
	if want := relGap(got.Objective, got.BestBound); got.Gap != want || !(got.Gap > 0) {
		t.Errorf("gap %g, want %g > 0", got.Gap, want)
	}

	// A root that fails twice proves no bound at all.
	testHook.failNode = 1
	root, err := Solve(p, Options{WarmStart: warm})
	if err != nil {
		t.Fatal(err)
	}
	if root.Optimal || root.Nodes != 1 || !math.IsInf(root.BestBound, -1) || !math.IsInf(root.Gap, 1) || root.Objective != dot(p.C, warm) {
		t.Errorf("root failure: %+v; want the warm start with no bound", root)
	}
}

// TestRelGapScale: the gap is relative at the fusion objective's scale
// (~1e-3 s), not floored at an absolute 1, and absolute only at zero.
func TestRelGapScale(t *testing.T) {
	if g := relGap(8.331e-4, 6.183e-4); math.Abs(g-0.2578) > 1e-4 {
		t.Errorf("relGap(8.331e-4, 6.183e-4) = %g, want 0.2578", g)
	}
	if g := relGap(-2, -3); g != 0.5 {
		t.Errorf("relGap(-2, -3) = %g, want 0.5", g)
	}
	if g := relGap(0, -1e-3); g != 1e-3 {
		t.Errorf("relGap(0, -1e-3) = %g, want the absolute 1e-3", g)
	}
	if g := relGap(1e-3, 2e-3); g != 0 {
		t.Errorf("relGap with the bound above the incumbent = %g, want 0", g)
	}
}
