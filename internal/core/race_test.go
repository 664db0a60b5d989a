//go:build race

package core

// raceEnabled reports a -race build: the race detector makes sync.Pool
// drop a share of what is Put, so pooled memory is reallocated at
// random and allocation counts mean nothing.
const raceEnabled = true
