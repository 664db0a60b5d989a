package dispatch

import (
	"fmt"

	"fast/internal/obsv"
)

// Stats is a point-in-time snapshot of the pool's dispatch counters.
type Stats struct {
	// Workers is the slot count; LiveWorkers how many are currently
	// connected and not retired.
	Workers     int `json:"workers"`
	LiveWorkers int `json:"live_workers"`
	// RemoteChunks / RemotePoints count work completed remotely.
	RemoteChunks int64 `json:"remote_chunks"`
	RemotePoints int64 `json:"remote_points"`
	// Retries counts dispatch rounds after the first; Duplicates
	// discarded late/duplicate replies; Timeouts attempt-deadline
	// expiries.
	Retries    int64 `json:"retries"`
	Duplicates int64 `json:"duplicates"`
	Timeouts   int64 `json:"timeouts"`
	// Respawns counts successful worker re-dials; DialFails failed dial
	// attempts; Corrupt replies that did not parse (each kills its
	// connection).
	Respawns  int64 `json:"respawns"`
	DialFails int64 `json:"dial_fails"`
	Corrupt   int64 `json:"corrupt"`
	// DegradedChunks counts chunks that fell back to in-process
	// evaluation (pool exhausted or out of attempts). Nonzero means the
	// study completed in degraded mode.
	DegradedChunks int64 `json:"degraded_chunks"`
	// InFlight is the number of chunks currently being dispatched.
	InFlight int64 `json:"in_flight"`
	// PerWorker breaks activity down by slot.
	PerWorker []WorkerStats `json:"per_worker"`
}

// WorkerStats is one slot's activity snapshot.
type WorkerStats struct {
	Slot int `json:"slot"`
	// Pid is the worker's process ID (0 for TCP/loopback workers or
	// while disconnected).
	Pid int `json:"pid,omitempty"`
	// Live reports whether the slot currently holds a connection.
	Live bool `json:"live"`
	// Trials is the number of points this slot evaluated.
	Trials int64 `json:"trials"`
	// Respawns is how many times this slot's worker was re-dialed.
	Respawns int64 `json:"respawns"`
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() Stats {
	st := Stats{
		Workers:        len(p.slots),
		RemoteChunks:   p.mRemoteChunks.Load(),
		RemotePoints:   p.mRemotePoints.Load(),
		Retries:        p.mRetries.Load(),
		Duplicates:     p.mDuplicates.Load(),
		Timeouts:       p.mTimeouts.Load(),
		Respawns:       p.mRespawns.Load(),
		DialFails:      p.mDialFails.Load(),
		Corrupt:        p.mCorrupt.Load(),
		DegradedChunks: p.mDegraded.Load(),
		InFlight:       p.mInFlight.Load(),
	}
	for _, s := range p.slots {
		s.mu.Lock()
		ws := WorkerStats{
			Slot:     s.id,
			Pid:      s.pid,
			Live:     s.tr != nil && !s.retired,
			Trials:   s.trials.Load(),
			Respawns: s.respawns.Load(),
		}
		s.mu.Unlock()
		if ws.Live {
			st.LiveWorkers++
		}
		st.PerWorker = append(st.PerWorker, ws)
	}
	return st
}

// RegisterMetrics exposes the pool's counters on r (surfaced at
// /debug/vars by fast-serve). Names are stable monitoring API:
//
//	fast_dispatch_workers            slot count (gauge)
//	fast_dispatch_live_workers       connected slots (gauge)
//	fast_dispatch_remote_chunks      chunks completed remotely
//	fast_dispatch_remote_points      points evaluated remotely
//	fast_dispatch_retries            dispatch rounds after the first
//	fast_dispatch_duplicates         late/duplicate replies discarded
//	fast_dispatch_timeouts           attempt-deadline expiries
//	fast_dispatch_respawns           worker re-dials that succeeded
//	fast_dispatch_dial_fails         worker dial attempts that failed
//	fast_dispatch_corrupt_replies    unparsable replies (connection-fatal)
//	fast_dispatch_degraded_chunks    chunks evaluated in-process as fallback
//	fast_dispatch_in_flight          chunks currently dispatching (gauge)
//	fast_dispatch_worker_trials{N}   points evaluated by slot N
func (p *Pool) RegisterMetrics(r *obsv.Registry) {
	gauge := func(name, help string, f func() float64) { r.NewFunc(name, help, f) }
	gauge("fast_dispatch_workers", "dispatch worker slot count", func() float64 { return float64(len(p.slots)) })
	gauge("fast_dispatch_live_workers", "dispatch worker slots currently connected", func() float64 {
		n := 0
		for _, s := range p.slots {
			s.mu.Lock()
			if s.tr != nil && !s.retired {
				n++
			}
			s.mu.Unlock()
		}
		return float64(n)
	})
	gauge("fast_dispatch_remote_chunks", "evaluation chunks completed remotely", func() float64 { return float64(p.mRemoteChunks.Load()) })
	gauge("fast_dispatch_remote_points", "design points evaluated remotely", func() float64 { return float64(p.mRemotePoints.Load()) })
	gauge("fast_dispatch_retries", "chunk dispatch rounds after the first", func() float64 { return float64(p.mRetries.Load()) })
	gauge("fast_dispatch_duplicates", "late or duplicate worker replies discarded", func() float64 { return float64(p.mDuplicates.Load()) })
	gauge("fast_dispatch_timeouts", "attempt deadline expiries", func() float64 { return float64(p.mTimeouts.Load()) })
	gauge("fast_dispatch_respawns", "worker respawns after connection loss", func() float64 { return float64(p.mRespawns.Load()) })
	gauge("fast_dispatch_dial_fails", "failed worker dial attempts", func() float64 { return float64(p.mDialFails.Load()) })
	gauge("fast_dispatch_corrupt_replies", "unparsable worker replies (connection-fatal)", func() float64 { return float64(p.mCorrupt.Load()) })
	gauge("fast_dispatch_degraded_chunks", "chunks that fell back to in-process evaluation", func() float64 { return float64(p.mDegraded.Load()) })
	gauge("fast_dispatch_in_flight", "chunks currently being dispatched", func() float64 { return float64(p.mInFlight.Load()) })
	for _, s := range p.slots {
		s := s
		gauge(fmt.Sprintf("fast_dispatch_worker_trials{slot=%d}", s.id),
			fmt.Sprintf("design points evaluated by worker slot %d", s.id),
			func() float64 { return float64(s.trials.Load()) })
	}
}
