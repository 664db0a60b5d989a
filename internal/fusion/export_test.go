package fusion

import (
	"time"

	"fast/internal/ilp"
)

// Bridges for the external tests (package fusion_test), which can
// import the simulator — it imports this package — and so run the
// greedy on the cost tables compiled plans actually produce.

// Greedy is the production greedy; LazyGreedy its frozen lazy-heap
// predecessor (lazygreedy_test.go).
var (
	Greedy     = greedy
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
// started from the greedy, with the deadline and the stall limit set
// apart, so a test can pin a stall stop under a deadline no host
// reaches.
func SolveExact(regions []RegionCost, usable []bool, capacity int64, deadline time.Duration, stall int) (Assignment, ilp.Result) {
	normalizeResident(regions)
	pin, keep, hold := greedy(regions, usable, capacity)
	return solveILP(regions, usable, capacity, pin, keep, hold, deadline, stall)
}

// StallNodes is the stall limit SolvePlanned derives from a deadline.
var StallNodes = stallNodes
