package core

// Durable, resumable studies.
//
// A study's search state is exactly its ask/tell transcript (see
// internal/search/snapshot.go), so checkpointing a study means recording
// every told batch, and resuming means rebuilding the optimizer from the
// recorded transcript and continuing with the remaining trial budget.
// Two Run options expose the seam:
//
//   - WithTranscript registers the checkpoint hook: every fully told
//     ask batch, in transcript order, from the driving goroutine.
//     internal/store appends each batch as one fsync'd JSON line.
//
//   - WithResume warm-starts a Run from a search.Snapshot: the optimizer
//     is restored by transcript replay, prior evaluations seed the
//     memoization cache, and the prior history is folded back into the
//     returned StudyResult — so an interrupted study resumed in a fresh
//     process returns a transcript (and Pareto front, which is a pure
//     fold of the history) bit-identical to an uninterrupted run's.
//
// Raising Study.Trials before a resumed Run warm-continues the search
// with more trials: the restored optimizer keeps its original annealing
// horizon (snapshot Budget), and the extra trials extend the transcript.
// The differential tests in resume_test.go pin the bit-identical claim
// per algorithm at parallelism 1 and 4.

import (
	"fmt"

	"fast/internal/search"
)

// WithTranscript registers f as the checkpoint hook of one Run: it
// observes every fully told ask batch, in transcript order, from the
// driving goroutine (no locking needed), immediately after the
// optimizer consumed the batch. Feeding the batches to
// (*search.Snapshot).Append — or persisting them with internal/store —
// captures everything needed to resume the study with WithResume. It
// is the Run's only observer hook: live progress reporting reads the
// same batches.
//
// On a resumed Run, f observes only the batches evaluated by that Run;
// the caller already holds the prior ones.
func WithTranscript(f func(batch []search.Trial)) Option {
	return func(c *runConfig) { c.onBatch = f }
}

// WithResume warm-starts the Run from a checkpoint snapshot: the
// optimizer is rebuilt in its recorded state (search.Restore), the
// snapshot's trials seed the memoization cache and count toward
// Study.Trials, and the returned StudyResult's history contains the
// prior trials followed by the newly evaluated ones — bit-identical to
// an uninterrupted run of the same study. Set Study.Trials above the
// snapshot's trial count to warm-continue a completed study with more
// trials; with Trials at or below it, Run evaluates nothing new and
// only re-derives the final result (including the full-ILP per-workload
// re-simulation), which is how a restarted process re-materializes a
// finished study's report from its checkpoint.
//
// The snapshot must match the study: same algorithm (after defaulting)
// and seed, or Run fails rather than silently forking the search.
func WithResume(snap search.Snapshot) Option {
	return func(c *runConfig) { c.resume = &snap }
}

// buildRunner assembles the Run's engine for the resolved study s,
// restoring the optimizer from a resume snapshot when one was given.
// The returned prior slice holds the resumed trials (nil on a fresh
// run); callers fold it back into the result with mergePrior.
func (s *Study) buildRunner(rc runConfig, evaluate search.BatchObjective) (*runner, []search.Trial, error) {
	var opt search.Optimizer
	var prior []search.Trial
	if rc.resume != nil {
		snap := *rc.resume
		if snap.Algorithm != s.Algorithm {
			return nil, nil, fmt.Errorf("core: resume snapshot was taken with algorithm %q, study uses %q", snap.Algorithm, s.Algorithm)
		}
		if snap.Seed != s.Seed {
			return nil, nil, fmt.Errorf("core: resume snapshot was taken with seed %d, study uses %d", snap.Seed, s.Seed)
		}
		restored, err := search.Restore(snap)
		if err != nil {
			return nil, nil, err
		}
		opt = restored
		prior = snap.Trials
	} else {
		opt = search.New(s.Algorithm, s.Seed, s.Trials)
	}
	return &runner{
		Optimizer:      opt,
		BatchObjective: evaluate,
		Trials:         s.Trials,
		Parallelism:    rc.parallelism,
		BatchSize:      rc.batchSize,
		OnBatch:        rc.onBatch,
		Completed:      len(prior),
		Warm:           prior,
	}, prior, nil
}

// mergePrior folds a resumed run's prior history in front of the new
// one, re-deriving Best through the same Observe rule every driver
// uses — so the merged result is indistinguishable from an
// uninterrupted run's.
func mergePrior(prior []search.Trial, sr search.Result) search.Result {
	if len(prior) == 0 {
		return sr
	}
	var out search.Result
	for _, t := range prior {
		out.Observe(t)
	}
	for _, t := range sr.History {
		out.Observe(t)
	}
	return out
}
