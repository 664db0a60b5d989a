package serve

import (
	"context"
	"errors"
	"time"

	"fast/internal/core"
	"fast/internal/fault"
	"fast/internal/search"
	"fast/internal/store"
)

// now stamps status records; the store itself never reads the clock.
func (s *Server) now() string {
	//fast:allow nondetsource status timestamps are operator metadata, never search state
	return time.Now().UTC().Format(time.RFC3339)
}

// launchLocked queues one run of st (fresh or resumed). Caller holds
// s.mu and has already set st.state = queued and the trial fields; this
// installs the cancel handle and starts the goroutine.
func (s *Server) launchLocked(st *study, snap *search.Snapshot, target int) {
	// The spec's wall-clock deadline rides the run context end-to-end:
	// core abandons the in-flight batch when it fires (durable prefix
	// intact) and dispatch clamps chunk timeouts to the remaining
	// budget, so a deadlined study stops burning workers too.
	var ctx context.Context
	var cancel context.CancelFunc
	if d := st.spec.DeadlineSec; d > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, time.Duration(d*float64(time.Second)))
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	st.cancel = cancel
	s.wg.Add(1)
	go s.run(ctx, cancel, st, snap, target)
}

// run drives one study from queued to a terminal state. It is the only
// goroutine touching st.stored while it lives.
func (s *Server) run(ctx context.Context, cancel context.CancelFunc, st *study, snap *search.Snapshot, target int) {
	defer s.wg.Done()
	// The hub is fixed for the lifetime of this run (resume installs a
	// fresh one before relaunching); capture it so handler-side hub
	// replacement can never race this goroutine.
	hub := s.hubOf(st)

	// Admission: one tenant cannot occupy the simulator beyond its
	// concurrency slots; studies past the limit wait here in state
	// queued, in submission order.
	s.mu.Lock()
	slot := s.slot(st.tenant)
	s.mu.Unlock()
	s.persistStatus(st) // the launch record
	s.metrics.studiesQueued.Add(1)
	//fast:allow nondetsource slot-vs-cancel race gates scheduling only; the transcript is parallelism-invariant
	select {
	case slot <- struct{}{}:
		s.metrics.studiesQueued.Add(-1)
	case <-ctx.Done():
		s.metrics.studiesQueued.Add(-1)
		s.finish(st, hub, nil, ctx.Err())
		return
	}
	defer func() { <-slot }()

	// Running is published, not persisted: restart recovery treats
	// queued and running alike, so the launch record says all it needs.
	s.mu.Lock()
	st.state = store.StateRunning
	sum := s.summaryLocked(st)
	s.mu.Unlock()
	hub.publish(event{name: "state", data: sum})
	s.metrics.studiesActive.Add(1)
	defer s.metrics.studiesActive.Add(-1)
	s.cfg.Logf("level=info msg=running tenant=%s id=%s target=%d", st.tenant, st.id, target)

	cs := st.cs
	cs.Trials = target
	if err := st.stored.BeginTranscript(cs.Algorithm, cs.Seed, st.spec.Trials); err != nil {
		s.finish(st, hub, nil, err)
		return
	}

	// Multi-objective studies maintain the Pareto archive incrementally
	// so front events stream as the frontier moves; it is the same fold
	// core applies to the final history, so the streamed front always
	// matches the eventual result.
	var archive *search.ParetoArchive
	if len(cs.Objectives) > 0 {
		archive = search.NewParetoArchive(cs.FrontCap)
		if snap != nil {
			for _, t := range snap.Trials {
				archive.Add(t)
			}
		}
	}

	var checkpointErr error
	onBatch := func(batch []search.Trial) {
		if s.cfg.batchHook != nil {
			s.cfg.batchHook(st.tenant, st.id)
		}
		n, err := st.stored.AppendBatch(batch)
		if err != nil {
			// A checkpoint that cannot be written voids the durability
			// contract; stop the study rather than run uncheckpointed.
			checkpointErr = err
			cancel()
			return
		}
		s.metrics.checkpointWrites.Inc()
		s.metrics.checkpointBytes.Add(int64(n))
		s.metrics.trialsTotal.Add(int64(len(batch)))
		s.metrics.trialsRate.Mark(int64(len(batch)))

		s.mu.Lock()
		st.observe(batch)
		sum := s.summaryLocked(st)
		s.mu.Unlock()
		hub.publish(event{name: "progress", data: sum})

		if archive != nil {
			moved := false
			for _, t := range batch {
				moved = archive.Add(t) || moved
			}
			if moved {
				hub.publish(event{name: "front", data: frontEvent(cs.Objectives, archive.Front())})
			}
		}
	}

	opts := []core.Option{core.WithTranscript(onBatch)}
	if s.cfg.Parallelism > 0 {
		opts = append(opts, core.WithParallelism(s.cfg.Parallelism))
	}
	if st.spec.BatchSize > 0 {
		opts = append(opts, core.WithBatchSize(st.spec.BatchSize))
	}
	if snap != nil {
		opts = append(opts, core.WithResume(*snap))
	}
	if s.cfg.Dispatch != nil {
		opts = append(opts, core.WithDispatch(s.cfg.Dispatch))
	}

	// Quarantine: a panic anywhere in the study drive (optimizer
	// ask/tell, result assembly — worker-side objective panics are
	// already converted by the study runner) fails this study terminally
	// with its durable prefix intact instead of killing the daemon.
	res, runErr := func() (res *core.StudyResult, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fault.FromPanic("serve.study", r)
			}
		}()
		return cs.Run(ctx, opts...)
	}()
	if cerr := st.stored.CloseTranscript(); cerr != nil {
		s.cfg.Logf("level=warn msg=\"transcript close failed\" tenant=%s id=%s err=%q", st.tenant, st.id, cerr)
		if runErr == nil && checkpointErr == nil {
			checkpointErr = cerr
		}
	}
	if checkpointErr != nil {
		runErr = checkpointErr
	}
	s.finish(st, hub, res, runErr)
}

// hubOf reads a study's current event hub under the server mutex.
func (s *Server) hubOf(st *study) *eventHub {
	s.mu.Lock()
	defer s.mu.Unlock()
	return st.hub
}

// frontEvent compresses a front for the event stream: indices and
// objective values in natural units, as GET .../result reports them
// (full designs come from GET .../result).
func frontEvent(objs []core.ObjectiveKind, front []search.Trial) []map[string]any {
	out := make([]map[string]any, len(front))
	for i, t := range front {
		vals := make([]float64, len(objs))
		for k, o := range objs {
			vals[k] = o.Raw(t.Values[k])
		}
		out[i] = map[string]any{"index": t.Index, "values": vals}
	}
	return out
}

// persistStatus durably replaces the study's lifecycle record. It runs
// when a run is launched and when it ends, never per batch: progress
// is the transcript's to record.
func (s *Server) persistStatus(st *study) {
	s.mu.Lock()
	status := store.Status{
		State:        st.state,
		TrialsTarget: st.trialsTarget,
		Error:        st.errMsg,
		ErrorClass:   st.errClass,
		Updated:      s.now(),
	}
	stored := st.stored
	s.mu.Unlock()
	if err := stored.SetStatus(status); err != nil {
		s.cfg.Logf("level=error msg=\"status write failed\" tenant=%s id=%s err=%q", st.tenant, st.id, err)
	}
}

// finish lands st in a terminal state, closes its event stream, and
// accounts the outcome.
func (s *Server) finish(st *study, hub *eventHub, res *core.StudyResult, runErr error) {
	state := store.StateDone
	switch {
	case runErr == nil:
	case errors.Is(runErr, context.Canceled):
		s.mu.Lock()
		closing := s.closed
		s.mu.Unlock()
		if closing {
			// Shutdown, not a user cancel: leave the study resumable,
			// exactly as a crash would (the transcript is durable).
			state = store.StateInterrupted
		} else {
			state = store.StateCanceled
			s.metrics.studiesCanceled.Inc()
		}
	case errors.Is(runErr, context.DeadlineExceeded):
		// The study's wall-clock deadline fired: failed, but
		// retryable — the durable prefix resumes under a later
		// deadline.
		state = store.StateFailed
		s.metrics.studiesFailed.Inc()
		s.metrics.deadlineExpired.Inc()
	default:
		state = store.StateFailed
		s.metrics.studiesFailed.Inc()
		if fault.IsPanic(runErr) {
			s.metrics.quarantined.Inc()
		}
	}

	s.mu.Lock()
	st.cancel = nil
	st.state = state
	if state == store.StateFailed && runErr != nil {
		st.errMsg = runErr.Error()
		if errors.Is(runErr, context.DeadlineExceeded) {
			st.errMsg = "study deadline exceeded; durable prefix retained (resume with a later deadline)"
			st.errClass = fault.ClassRetryable.String()
		} else {
			st.errClass = fault.ClassOf(runErr).String()
		}
	}
	if state == store.StateDone {
		st.result = res
	}
	sum := s.summaryLocked(st)
	s.mu.Unlock()
	s.persistStatus(st)

	if state == store.StateDone {
		s.metrics.studiesCompleted.Inc()
		s.countDeadlineHits(res)
	}
	s.cfg.Logf("level=info msg=%s tenant=%s id=%s trials_done=%d err=%q",
		state, st.tenant, st.id, sum.TrialsDone, sum.Error)
	hub.publish(event{name: "state", data: sum})
	if state == store.StateInterrupted {
		// Server shutdown: the study is checkpointed and paused, not
		// finished — the closing SSE frame says so.
		hub.closeWith("shutdown")
	} else {
		hub.close()
	}
}

// countDeadlineHits scans the final report's full-ILP re-simulations
// for fusion solves that ended unproven (at the stall limit or the node
// budget; the metric's name predates both) — the operator's signal to
// raise ilp_nodes, which raises the stall limit too, or accept the gap.
func (s *Server) countDeadlineHits(res *core.StudyResult) {
	if res == nil {
		return
	}
	for _, wr := range res.PerWorkload {
		if wr.Result != nil && wr.Result.Fusion.Method == "ilp-incumbent" {
			s.metrics.ilpDeadlineHits.Inc()
		}
	}
	for _, pt := range res.Front() {
		for _, wr := range pt.PerWorkload {
			if wr.Result != nil && wr.Result.Fusion.Method == "ilp-incumbent" {
				s.metrics.ilpDeadlineHits.Inc()
			}
		}
	}
}
