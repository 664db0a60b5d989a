package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"fast/internal/arch"
	"fast/internal/fault"
	"fast/internal/search"
)

// sortIndexVectors orders hyperparameter vectors lexicographically, so
// near-identical proposals (adaptive optimizers mutate a few coordinates
// around incumbents) become neighbours before the batch is chunked.
func sortIndexVectors(work [][arch.NumParams]int) {
	sort.Slice(work, func(a, b int) bool {
		for d := 0; d < arch.NumParams; d++ {
			if work[a][d] != work[b][d] {
				return work[a][d] < work[b][d]
			}
		}
		return false
	})
}

// defaultBatchSize is the Runner's ask/tell batch width. It matches the
// LCS swarm, so one batch is one swarm generation.
const defaultBatchSize = 16

// maxObjectiveChunk bounds how many points one BatchObjective call may
// receive, so context cancellation is honoured at chunk rather than
// whole-batch granularity even under very large custom batch sizes.
const maxObjectiveChunk = 64

// Runner pumps a search.Optimizer with a bounded worker pool. It is the
// concurrency substrate of Study.Run, usable directly for custom
// objectives.
//
// Determinism: the optimizer transcript depends only on BatchSize —
// batches are asked whole, evaluated (possibly concurrently), and told
// back in ask order. Parallelism changes wall-clock time, never the
// transcript, so a run with a fixed seed yields bit-identical results at
// any worker count.
//
// Memoization: objective evaluations are cached by hyperparameter index
// vector for the lifetime of one Run. Adaptive optimizers (LCS, Bayes)
// revisit points constantly late in a search; revisits replay the cached
// evaluation instead of re-simulating, while still counting as trials
// and being told to the optimizer.
type Runner struct {
	// Optimizer proposes candidates; required.
	Optimizer search.Optimizer
	// BatchObjective evaluates candidates; required. The Runner sorts
	// each ask-batch's unique uncached points lexicographically (grouping
	// near-identical proposals so a stage-memoizing evaluator hits warm
	// caches) and fans contiguous chunks across the worker pool. It must
	// be safe for concurrent calls when Parallelism > 1, and
	// deterministic per index vector (memoization replays the first
	// evaluation of a point).
	BatchObjective search.BatchObjective
	// Trials bounds the total evaluation count.
	Trials int
	// Parallelism bounds concurrent BatchObjective calls; <= 0 uses
	// runtime.GOMAXPROCS(0).
	Parallelism int
	// BatchSize is the ask/tell batch width; <= 0 uses DefaultBatchSize.
	// Unlike Parallelism it is algorithmic state: changing it changes
	// the optimizer transcript (and therefore the search trajectory).
	BatchSize int
	// OnTrial, if non-nil, observes every trial in deterministic tell
	// order from the driving goroutine.
	OnTrial func(search.Trial)
	// OnBatch, if non-nil, observes every fully told ask batch, in
	// transcript order, from the driving goroutine, immediately after
	// the optimizer's Tell and before the per-trial OnTrial calls. It is
	// the checkpoint seam: a batch handed to OnBatch is durable search
	// state — the optimizer has consumed it, and replaying the batches
	// seen so far (search.Restore) reproduces the optimizer exactly.
	OnBatch func(batch []search.Trial)
	// Completed is the number of trials a resumed run has already
	// evaluated (through an earlier Run whose batches were
	// checkpointed). The Runner performs Trials-Completed further
	// evaluations, and — because the ask-batch schedule depends only on
	// the running done-count — asks them in the exact sizes the
	// uninterrupted run would have used, which is what makes
	// kill-restart-resume transcripts bit-identical.
	Completed int
	// Warm seeds the memoization cache with previously evaluated trials
	// (a resumed run's prior history), so revisits of old points replay
	// the recorded evaluation instead of re-simulating. Purely a
	// performance hint: the objective is deterministic per index vector,
	// so omitting Warm changes wall-clock time, never the transcript.
	Warm []search.Trial
}

// runChunk evaluates one chunk, converting a panicking objective into
// an error (classified terminal: re-evaluating the same points panics
// again) instead of letting it unwind the worker goroutine and kill the
// whole process.
func runChunk(batchObj search.BatchObjective, idxs [][arch.NumParams]int) (evs []search.Evaluation, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fault.FromPanic("core.objective", r)
		}
	}()
	return batchObj(idxs), nil
}

// Run executes up to r.Trials evaluations. On context cancellation it
// stops promptly — in-flight evaluations finish, the unfinished batch is
// abandoned untold — and returns the partial history together with
// ctx.Err(). A panicking BatchObjective does not crash the
// process: the panic surfaces as Run's returned error (terminal under
// the fault taxonomy) with the already-told batches intact.
func (r *Runner) Run(ctx context.Context) (search.Result, error) {
	var res search.Result
	if r.Optimizer == nil || r.BatchObjective == nil {
		return res, fmt.Errorf("core: Runner needs an Optimizer and a BatchObjective")
	}
	par := r.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	batch := r.BatchSize
	if batch <= 0 {
		batch = defaultBatchSize
	}
	cache := make(map[[arch.NumParams]int]search.Evaluation)
	for _, t := range r.Warm {
		// First observation wins, matching the cache's own discipline
		// (duplicates in a history carry identical evaluations anyway).
		if _, ok := cache[t.Index]; !ok {
			cache[t.Index] = t.Evaluation
		}
	}

	for done := r.Completed; done < r.Trials; {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		n := batch
		if rem := r.Trials - done; n > rem {
			n = rem
		}
		asks := r.Optimizer.Ask(n)
		if len(asks) == 0 {
			// Exhausted optimizer (e.g. a finite grid): a normal early
			// end with the partial result.
			return res, nil
		}

		// Collapse the batch to unique uncached points: slots[i] holds
		// the evaluation for asks[i]; work lists the points to compute.
		evals := make([]search.Evaluation, len(asks))
		fill := make(map[[arch.NumParams]int][]int)
		var work [][arch.NumParams]int
		for i, idx := range asks {
			if ev, ok := cache[idx]; ok {
				evals[i] = ev
				continue
			}
			if _, seen := fill[idx]; !seen {
				work = append(work, idx)
			}
			fill[idx] = append(fill[idx], i)
		}

		if len(work) > 0 {
			outs := make([]search.Evaluation, len(work))
			workers := par
			if workers > len(work) {
				workers = len(work)
			}
			// Workers pull contiguous chunks off an atomic cursor, checking
			// cancellation between chunks. The unique points are sorted so
			// proposals that share parameter sub-tuples become neighbours,
			// in chunks bounded by maxObjectiveChunk so large custom
			// BatchSizes still stop promptly on cancellation. Results are
			// keyed by index vector, so neither sorting nor chunking
			// reaches the transcript.
			sortIndexVectors(work)
			chunk := (len(work) + workers - 1) / workers
			if chunk > maxObjectiveChunk {
				chunk = maxObjectiveChunk
			}
			nChunks := (len(work) + chunk - 1) / chunk
			var next atomic.Int64
			next.Store(-1)
			// A panicking objective must not kill the process: the worker
			// converts the panic to an error, the remaining workers drain
			// via the quarantine context, and Run returns the error so the
			// caller can fail just this study. The batch is abandoned
			// untold, exactly as on cancellation, so the durable
			// transcript stays a prefix of the unfaulted run's.
			workCtx, stopWork := context.WithCancel(ctx)
			var panicOnce sync.Once
			var panicErr error
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						ci := int(next.Add(1))
						if ci >= nChunks || workCtx.Err() != nil {
							return
						}
						lo := ci * chunk
						hi := lo + chunk
						if hi > len(work) {
							hi = len(work)
						}
						got, err := runChunk(r.BatchObjective, work[lo:hi])
						if err == nil && len(got) != hi-lo {
							err = fmt.Errorf("core: BatchObjective returned %d evaluations for %d points", len(got), hi-lo)
						}
						if err != nil {
							panicOnce.Do(func() {
								panicErr = err
								stopWork()
							})
							return
						}
						copy(outs[lo:hi], got)
					}
				}()
			}
			wg.Wait()
			stopWork()
			if panicErr != nil {
				return res, panicErr
			}
			if err := ctx.Err(); err != nil {
				// Abandon the batch: some points may be unevaluated, and
				// telling a partial batch would make the transcript
				// depend on timing.
				return res, err
			}
			for j, idx := range work {
				cache[idx] = outs[j]
				for _, slot := range fill[idx] {
					evals[slot] = outs[j]
				}
			}
		}

		trials := make([]search.Trial, len(asks))
		for i, idx := range asks {
			trials[i] = search.Trial{Index: idx, Evaluation: evals[i]}
		}
		r.Optimizer.Tell(trials)
		if r.OnBatch != nil {
			r.OnBatch(trials)
		}
		for _, t := range trials {
			res.Observe(t)
			if r.OnTrial != nil {
				r.OnTrial(t)
			}
		}
		done += len(asks)
	}
	return res, nil
}
