package ilp

import "testing"

// Bridges for the external tests (package ilp_test), which can import
// the simulator — it imports this package — and so run the kernels on
// real fusion instances.

// CheckKernelsOnProblem runs the sparse-vs-dense kernel differential on
// bases the simplex itself reaches on p.
func CheckKernelsOnProblem(t testing.TB, p Problem, seed int64) {
	checkKernelsOnProblem(t, p, seed)
}

// CheckEveryPivot runs the sweep differentials (checkPivot) at every
// dual simplex pivot until the returned function is called, which
// reports the pivots checked and the first failure.
func CheckEveryPivot() (restore func() (int, error)) { return checkEveryPivot() }

// CaptureProblems hands fn every problem that enters the sparse solver
// until the returned function is called.
func CaptureProblems(fn func(Problem)) (restore func()) {
	testHook.problem = fn
	return func() { testHook.problem = nil }
}

// StopAtNodes cuts every branch-and-bound off after limit nodes, as an
// expired deadline would, until the returned function is called. At the
// cut-off fn receives the number of open nodes and a function that
// drops them (and everything only they keep alive).
func StopAtNodes(limit int, fn func(open int, release func())) (restore func()) {
	testHook.nodeLimit = limit
	testHook.atNodeLimit = func(h *nodeHeap) {
		fn(len(*h), func() { *h = nil })
	}
	return func() { testHook.nodeLimit, testHook.atNodeLimit = 0, nil }
}
