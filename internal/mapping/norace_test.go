//go:build !race

package mapping

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
