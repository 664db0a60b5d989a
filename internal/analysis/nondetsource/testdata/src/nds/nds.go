// Package nds exercises the nondetsource analyzer: wall-clock reads,
// the global math/rand generator, and multi-way selects.
package nds

import (
	"math/rand"
	"time"
)

// stamp reads the wall clock.
func stamp() int64 {
	return time.Now().UnixNano() // want `time.Now reads the wall clock in a deterministic path`
}

// elapsed reads the wall clock through Since.
func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `time.Since reads the wall clock in a deterministic path`
}

// roll uses the globally seeded generator.
func roll() int {
	return rand.Intn(6) // want `rand.Intn uses the global generator`
}

// seeded draws from an explicitly seeded generator: clean.
func seeded(r *rand.Rand) int {
	return r.Intn(6)
}

// pick chooses nondeterministically among ready channels.
func pick(a, b chan int) int {
	select { // want `select over 2 channels chooses nondeterministically`
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// tryRecv is a single-channel select with default: clean.
func tryRecv(a chan int) (int, bool) {
	select {
	case v := <-a:
		return v, true
	default:
		return 0, false
	}
}

// deadline is the audited exception pattern.
func deadline() time.Time {
	//fast:allow nondetsource scheduling seam fixture
	return time.Now()
}
