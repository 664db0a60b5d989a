//go:build race

package sim

// raceEnabled reports a -race build: the race detector makes sync.Pool
// drop a share of what is Put and adds shadow memory, so heap figures
// mean nothing.
const raceEnabled = true
