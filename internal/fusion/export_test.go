package fusion

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
