//go:build race

package mapping

// raceEnabled reports a -race build, whose instrumentation makes
// allocation counts meaningless.
const raceEnabled = true
