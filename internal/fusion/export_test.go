package fusion

import "fast/internal/ilp"

// Bridges for the external tests (package fusion_test), which can
// import the simulator — it imports this package — and so run the
// greedy on the cost tables compiled plans actually produce.

// Greedy is the production greedy, run into fresh slices, GreedyInto
// the same into its caller's zeroed slices; LazyGreedy their frozen
// lazy-heap predecessor (lazygreedy_test.go).
var (
	Greedy     = freshGreedy
	GreedyInto = greedy
	LazyGreedy = lazyGreedy
)

// CaptureSolves hands fn every instance entering SolvePlanned's solvers
// until the returned function is called. The regions slice is the
// caller's scratch: fn must copy what it keeps.
func CaptureSolves(fn func(regions []RegionCost, usable []bool, capacity int64)) (restore func()) {
	testHook.solve = fn
	return func() { testHook.solve = nil }
}

// SolveExact runs SolvePlanned's exact solve on one instance, warm
// started from the greedy, with the node budget and the stall limit set
// apart, so a test can pin a stall stop at any limit.
func SolveExact(regions []RegionCost, usable []bool, capacity int64, total, stall int) (Assignment, ilp.Result) {
	normalizeResident(regions)
	pin, keep, hold := freshGreedy(regions, usable, capacity)
	return solveILP(regions, usable, capacity, pin, keep, hold, total, stall)
}

// NodeLimits is the node budget and stall limit SolvePlanned derives
// from Options.MaxNodes.
var NodeLimits = nodeLimits

// freshGreedy runs greedy into newly allocated placement slices.
func freshGreedy(regions []RegionCost, usable []bool, capacity int64) (pin, keep, hold []bool) {
	n := len(regions)
	pin, keep, hold = make([]bool, n), make([]bool, n), make([]bool, n)
	greedy(regions, usable, capacity, pin, keep, hold)
	return pin, keep, hold
}
