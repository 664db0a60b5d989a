//go:build race

package fusion_test

// raceEnabled reports a -race build, which runs the solver about ten
// times slower.
const raceEnabled = true
