package core

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"fast/internal/arch"
	"fast/internal/fault"
	"fast/internal/search"
)

// compareIndex orders hyperparameter vectors lexicographically, so
// near-identical proposals (adaptive optimizers mutate a few coordinates
// around incumbents) become neighbours before the batch is chunked.
func compareIndex(a, b [arch.NumParams]int) int {
	for d := 0; d < arch.NumParams; d++ {
		if a[d] != b[d] {
			return cmp.Compare(a[d], b[d])
		}
	}
	return 0
}

// defaultBatchSize is the runner's ask/tell batch width. It matches the
// LCS swarm, so one batch is one swarm generation.
const defaultBatchSize = 16

// maxObjectiveChunk bounds how many points one BatchObjective call may
// receive, so context cancellation is honoured at chunk rather than
// whole-batch granularity even under very large custom batch sizes.
const maxObjectiveChunk = 64

// runner pumps a search.Optimizer with a bounded worker pool. It is the
// concurrency substrate of Study.Run.
//
// Determinism: the optimizer transcript depends only on BatchSize —
// batches are asked whole, evaluated (possibly concurrently), and told
// back in ask order. Parallelism changes wall-clock time, never the
// transcript, so a run with a fixed seed yields bit-identical results at
// any worker count.
//
// Memoization: objective evaluations are cached by canonical index
// vector (arch.Space.Canonical: one key per design) for the lifetime of
// one Run. Adaptive optimizers (LCS, Bayes) revisit points constantly
// late in a search, and a third of the space aliases another design;
// revisits and aliases replay the cached evaluation instead of
// re-simulating, while still counting as trials and being told to the
// optimizer under the vector it asked for.
type runner struct {
	// Optimizer proposes candidates; required.
	Optimizer search.Optimizer
	// BatchObjective evaluates candidates; required. The runner sorts
	// each ask-batch's unique uncached points lexicographically and fans
	// contiguous chunks across the worker pool; it sees canonical vectors
	// only. It must be safe for concurrent calls when
	// Parallelism > 1, and deterministic per design (memoization replays
	// the first evaluation of a design for all its aliases).
	BatchObjective search.BatchObjective
	// Trials bounds the total evaluation count.
	Trials int
	// Parallelism bounds concurrent BatchObjective calls; <= 0 uses
	// runtime.GOMAXPROCS(0).
	Parallelism int
	// BatchSize is the ask/tell batch width; <= 0 uses defaultBatchSize.
	// Unlike Parallelism it is algorithmic state: changing it changes
	// the optimizer transcript (and therefore the search trajectory).
	BatchSize int
	// OnBatch, if non-nil, observes every fully told ask batch, in
	// transcript order, from the driving goroutine, immediately after
	// the optimizer's Tell. It is the checkpoint seam: a batch handed to
	// OnBatch is durable search state — the optimizer has consumed it,
	// and replaying the batches seen so far (search.Restore) reproduces
	// the optimizer exactly.
	// The batch is a window on the Run's history: read it during the
	// call, copy what you keep, and never modify it.
	OnBatch func(batch []search.Trial)
	// Completed is the number of trials a resumed run has already
	// evaluated (through an earlier Run whose batches were
	// checkpointed). The runner performs Trials-Completed further
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

// workerPool evaluates one batch of unique points at a time with up to
// par concurrent BatchObjective calls: the Run's own goroutine plus up
// to par-1 helpers, each started the first time a batch needs it and
// kept until the Run ends. A batch of a few points therefore costs a
// channel send per helper, not a goroutine start (and its stack growth
// to the evaluator's depth).
//
// Workers pull contiguous chunks of the batch off an atomic cursor,
// checking cancellation between chunks. A panicking objective does not
// kill the process: its worker converts the panic to an error and the
// other workers stop taking chunks (the quarantine), and the error ends
// the Run.
type workerPool struct {
	ctx context.Context
	obj search.BatchObjective
	par int

	jobs    chan struct{}  // one token per helper enlisted for the batch
	helpers int            // helpers started so far
	alive   sync.WaitGroup // started helpers that have not exited
	busy    sync.WaitGroup // enlisted helpers still on the batch

	// The current batch. The Run's goroutine writes these fields before
	// enlisting helpers and reads outs after they are done.
	work           [][arch.NumParams]int
	outs           []search.Evaluation
	chunk, nChunks int
	next           atomic.Int64

	failed atomic.Bool
	errMu  sync.Mutex
	err    error // the first chunk failure; it ends the Run
}

func newWorkerPool(ctx context.Context, obj search.BatchObjective, par int) *workerPool {
	// A batch enlists at most par-1 helpers, so with this buffer the
	// enlisting sends never block the Run's goroutine.
	return &workerPool{ctx: ctx, obj: obj, par: par, jobs: make(chan struct{}, par)}
}

// evaluate computes work, which must be non-empty, and returns one
// evaluation per point. The result is scratch, overwritten by the next
// call. A non-nil error is the first chunk failure; on cancellation
// some results may be missing, so the caller checks the context too.
func (p *workerPool) evaluate(work [][arch.NumParams]int) ([]search.Evaluation, error) {
	workers := min(p.par, len(work))
	p.chunk = min((len(work)+workers-1)/workers, maxObjectiveChunk)
	p.nChunks = (len(work) + p.chunk - 1) / p.chunk
	p.work = work
	p.outs = slices.Grow(p.outs[:0], len(work))[:len(work)]
	p.next.Store(-1)
	for ; p.helpers < workers-1; p.helpers++ {
		p.alive.Add(1)
		go p.help()
	}
	p.busy.Add(workers - 1)
	for w := 1; w < workers; w++ {
		p.jobs <- struct{}{}
	}
	p.drain()
	p.busy.Wait() // every helper's writes happen before this returns
	return p.outs, p.err
}

// help is a helper's life: drain each batch it is enlisted for, until
// stop.
func (p *workerPool) help() {
	defer p.alive.Done()
	for range p.jobs {
		p.drain()
		p.busy.Done()
	}
}

// drain evaluates chunks of the current batch until none is left, the
// context ends or some chunk failed.
func (p *workerPool) drain() {
	for !p.failed.Load() && p.ctx.Err() == nil {
		ci := int(p.next.Add(1))
		if ci >= p.nChunks {
			return
		}
		lo := ci * p.chunk
		hi := min(lo+p.chunk, len(p.work))
		got, err := runChunk(p.obj, p.work[lo:hi])
		if err == nil && len(got) != hi-lo {
			err = fmt.Errorf("core: BatchObjective returned %d evaluations for %d points", len(got), hi-lo)
		}
		if err != nil {
			p.errMu.Lock()
			if p.err == nil {
				p.err = err
			}
			p.errMu.Unlock()
			p.failed.Store(true)
			return
		}
		copy(p.outs[lo:hi], got)
	}
}

// stop ends every helper and waits for them to exit, so no goroutine
// of the pool outlives its Run.
func (p *workerPool) stop() {
	close(p.jobs)
	p.alive.Wait()
}

// Run executes up to r.Trials evaluations. On context cancellation it
// stops promptly — in-flight evaluations finish, the unfinished batch is
// abandoned untold — and returns the partial history together with
// ctx.Err(). A panicking BatchObjective does not crash the
// process: the panic surfaces as Run's returned error (terminal under
// the fault taxonomy) with the already-told batches intact.
//
// Each told batch is appended to the result's History once; Tell and
// OnBatch both see that sub-slice of it, in that order.
func (r *runner) Run(ctx context.Context) (search.Result, error) {
	var res search.Result
	if r.Optimizer == nil || r.BatchObjective == nil {
		return res, fmt.Errorf("core: runner needs an Optimizer and a BatchObjective")
	}
	par := r.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	batch := r.BatchSize
	if batch <= 0 {
		batch = defaultBatchSize
	}
	canonical := arch.Space{}.Canonical
	cache := make(map[[arch.NumParams]int]search.Evaluation)
	for _, t := range r.Warm {
		// First observation wins, matching the cache's own discipline
		// (duplicates in a history carry identical evaluations anyway).
		k := canonical(t.Index)
		if _, ok := cache[k]; !ok {
			cache[k] = t.Evaluation
		}
	}
	pool := newWorkerPool(ctx, r.BatchObjective, par)
	defer pool.stop()

	var work [][arch.NumParams]int
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

		// Evaluate the batch's unique uncached points, sorted, in
		// chunks bounded by maxObjectiveChunk so large custom
		// BatchSizes still stop promptly on cancellation. Results are
		// keyed by index vector, so neither sorting nor chunking
		// reaches the transcript.
		work = work[:0]
		for _, idx := range asks {
			k := canonical(idx)
			if _, ok := cache[k]; !ok {
				work = append(work, k)
			}
		}
		if len(work) > 0 {
			slices.SortFunc(work, compareIndex)
			work = slices.Compact(work)
			outs, err := pool.evaluate(work)
			if err != nil {
				// The batch is abandoned untold, exactly as on
				// cancellation, so the durable transcript stays a prefix
				// of the unfaulted run's.
				return res, err
			}
			if err := ctx.Err(); err != nil {
				// Abandon the batch: some points may be unevaluated, and
				// telling a partial batch would make the transcript
				// depend on timing.
				return res, err
			}
			for j, idx := range work {
				cache[idx] = outs[j]
			}
		}

		lo := len(res.History)
		if need := lo + len(asks); need > cap(res.History) {
			// Double, but never past the budget: room is only ever made
			// for trials this Run can still tell.
			grown := make([]search.Trial, lo, min(max(2*cap(res.History), need), lo+r.Trials-done))
			copy(grown, res.History)
			res.History = grown
		}
		for _, idx := range asks {
			res.Observe(search.Trial{Index: idx, Evaluation: cache[canonical(idx)]})
		}
		told := res.History[lo:len(res.History):len(res.History)]
		r.Optimizer.Tell(told)
		if r.OnBatch != nil {
			r.OnBatch(told)
		}
		done += len(asks)
	}
	return res, nil
}
