package ilp

import (
	"slices"
	"sync"
	"testing"
)

// Bridges for the external tests (package ilp_test), which can import
// the simulator — it imports this package — and so run the kernels on
// real fusion instances.

// SolveDense validates p as Solve does and solves it with the frozen
// dense-tableau reference solver (dense_test.go), the oracle of the
// differential suites.
func SolveDense(p Problem, o Options) (Result, error) {
	if err := validate(p); err != nil {
		return Result{}, err
	}
	return solveDense(p, o)
}

// CheckKernelsOnProblem runs the sparse-vs-dense kernel differential on
// bases the simplex itself reaches on p.
func CheckKernelsOnProblem(t testing.TB, p Problem, seed int64) {
	checkKernelsOnProblem(t, p, seed)
}

// CheckStateReuse holds solves on one reused solver state to solves on
// fresh ones, on problems and small random ones interleaved.
func CheckStateReuse(t testing.TB, problems []Problem, seed int64) {
	checkStateReuse(t, problems, seed)
}

// CheckEveryPivot runs the sweep differentials (checkPivot) at every
// dual simplex pivot until the returned function is called, which
// reports the pivots checked and the first failure.
func CheckEveryPivot() (restore func() (int, error)) { return checkEveryPivot() }

// CaptureProblems hands fn a copy of every problem that enters the
// solver, and of its warm start, until the returned function is called.
// A copy, because Solve's caller may reuse the problem's arrays once
// Solve returns (the fusion pass pools its row arenas).
func CaptureProblems(fn func(p Problem, warm []float64)) (restore func()) {
	testHook.problem = func(p Problem, warm []float64) {
		rows := make([]Row, len(p.A))
		for i, r := range p.A {
			rows[i] = Row{Idx: slices.Clone(r.Idx), Val: slices.Clone(r.Val)}
		}
		fn(Problem{C: slices.Clone(p.C), A: rows, B: slices.Clone(p.B), Binary: slices.Clone(p.Binary)}, slices.Clone(warm))
	}
	return func() { testHook.problem = nil }
}

// CountFailures counts the node LPs that fail numerically, and those
// of them whose retry from the slack basis fails too, until the
// returned function is called, which reports both.
func CountFailures() (restore func() (failed, unrecovered int)) {
	var mu sync.Mutex
	var failed, unrecovered int
	testHook.failed = func(recovered bool) {
		mu.Lock()
		defer mu.Unlock()
		failed++
		if !recovered {
			unrecovered++
		}
	}
	return func() (int, int) {
		testHook.failed = nil
		mu.Lock()
		defer mu.Unlock()
		return failed, unrecovered
	}
}

// AtMaxNodes hands fn every branch-and-bound stopped at
// Options.MaxNodes, until the returned function is called: the number of
// open nodes and a function that drops them (and everything only they
// keep alive).
func AtMaxNodes(fn func(open int, release func())) (restore func()) {
	testHook.atMaxNodes = func(h *nodeHeap) {
		fn(len(*h), func() { *h = nil })
	}
	return func() { testHook.atMaxNodes = nil }
}
