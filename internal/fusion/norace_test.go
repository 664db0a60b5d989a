//go:build !race

package fusion_test

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
