package sim

import "fast/internal/arch"

// Bridges for the external tests (package sim_test), which can import
// the study engine — it imports this package — and so watch what a
// whole study does to a shared plan.

// OnScoreFill hands fn every Score a ScoreBatch miss evaluates, before
// the memo stores it, until the returned function is called. fn runs on
// the scoring goroutine, so it must be safe for concurrent use.
func OnScoreFill(fn func(cfg *arch.Config, s Score)) (restore func()) {
	fillHook = fn
	return func() { fillHook = nil }
}
