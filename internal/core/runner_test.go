package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fast/internal/arch"
	"fast/internal/fault"
	"fast/internal/search"
)

// smooth is a cheap synthetic objective with its optimum at the center
// of every dimension and an infeasible slab on the first coordinate.
func smooth(idx [arch.NumParams]int) search.Evaluation {
	dims := arch.Space{}.Dims()
	if idx[0] == dims[0]-1 {
		return search.Evaluation{}
	}
	v := 0.0
	for d, card := range dims {
		x := float64(idx[d]) / float64(card-1)
		v -= (x - 0.5) * (x - 0.5)
	}
	return search.Evaluation{Value: 100 + v, Feasible: true}
}

// pointwise lifts a per-point test function into the Runner's
// BatchObjective.
func pointwise(f func([arch.NumParams]int) search.Evaluation) search.BatchObjective {
	return func(idxs [][arch.NumParams]int) []search.Evaluation {
		out := make([]search.Evaluation, len(idxs))
		for i, idx := range idxs {
			out[i] = f(idx)
		}
		return out
	}
}

// TestRunnerParallelismInvariance is the engine's core guarantee: for a
// fixed seed the full trial history — not just the best — is identical
// at parallelism 1 and 4.
func TestRunnerParallelismInvariance(t *testing.T) {
	for _, alg := range []search.Algorithm{search.AlgRandom, search.AlgLCS, search.AlgBayes} {
		run := func(par int) search.Result {
			rn := &runner{
				Optimizer:      search.New(alg, 11, 200),
				BatchObjective: pointwise(smooth),
				Trials:         200,
				Parallelism:    par,
			}
			res, err := rn.Run(context.Background())
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			return res
		}
		serial, parallel := run(1), run(4)
		if len(serial.History) != 200 || len(parallel.History) != 200 {
			t.Fatalf("%s: history lengths %d / %d", alg, len(serial.History), len(parallel.History))
		}
		for i := range serial.History {
			if !serial.History[i].Equal(parallel.History[i]) {
				t.Fatalf("%s: trial %d differs between parallelism 1 and 4: %+v vs %+v",
					alg, i, serial.History[i], parallel.History[i])
			}
		}
		if !serial.Best.Equal(parallel.Best) {
			t.Errorf("%s: best differs between parallelism 1 and 4", alg)
		}
	}
}

// repeatOptimizer always proposes the same point — the memoization
// worst case.
type repeatOptimizer struct{ idx [arch.NumParams]int }

func (o *repeatOptimizer) Ask(n int) [][arch.NumParams]int {
	out := make([][arch.NumParams]int, n)
	for i := range out {
		out[i] = o.idx
	}
	return out
}

func (o *repeatOptimizer) Tell([]search.Trial) {}

// TestRunnerMemoizes: revisited points are evaluated once, replayed for
// every later trial, and still counted in the history.
func TestRunnerMemoizes(t *testing.T) {
	var calls atomic.Int64
	rn := &runner{
		Optimizer: &repeatOptimizer{idx: [arch.NumParams]int{1, 1, 1}},
		BatchObjective: pointwise(func(idx [arch.NumParams]int) search.Evaluation {
			calls.Add(1)
			return smooth(idx)
		}),
		Trials:      48,
		Parallelism: 4,
	}
	res, err := rn.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("objective called %d times for 48 identical trials, want 1", got)
	}
	if len(res.History) != 48 {
		t.Errorf("history = %d, want 48 (memoized trials still count)", len(res.History))
	}
	for i := 1; i < len(res.History); i++ {
		if !res.History[i].Equal(res.History[0]) {
			t.Fatalf("memoized trial %d differs from the original evaluation", i)
		}
	}
}

// TestRunnerCancellation: a canceled context stops the engine promptly
// and hands back the partial history with ctx.Err().
func TestRunnerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rn := &runner{
		Optimizer: search.New(search.AlgRandom, 1, 100000),
		BatchObjective: pointwise(func(idx [arch.NumParams]int) search.Evaluation {
			time.Sleep(time.Millisecond)
			return smooth(idx)
		}),
		Trials:      100000,
		Parallelism: 2,
		OnBatch:     func([]search.Trial) { cancel() },
	}
	t0 := time.Now()
	res, err := rn.Run(ctx)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if took := time.Since(t0); took > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt return", took)
	}
	if len(res.History) == 0 || len(res.History) >= 100000 {
		t.Errorf("partial history = %d trials, want some but not all", len(res.History))
	}
}

// TestStudyParallelismInvariance runs the real study end to end: same
// seed, parallelism 1 vs 4, identical best design per algorithm.
func TestStudyParallelismInvariance(t *testing.T) {
	for _, alg := range []search.Algorithm{search.AlgRandom, search.AlgLCS, search.AlgBayes} {
		run := func(par int) *StudyResult {
			res, err := (&Study{
				Workloads: []string{"efficientnet-b0"},
				Objective: PerfPerTDP,
				Algorithm: alg,
				Trials:    32,
				Seed:      6,
			}).Run(context.Background(), WithParallelism(par))
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			return res
		}
		serial, parallel := run(1), run(4)
		if serial.BestValue != parallel.BestValue {
			t.Errorf("%s: best value differs: %v vs %v", alg, serial.BestValue, parallel.BestValue)
		}
		if (serial.Best == nil) != (parallel.Best == nil) {
			t.Fatalf("%s: feasibility differs between parallelism 1 and 4", alg)
		}
		if serial.Best != nil && *serial.Best != *parallel.Best {
			t.Errorf("%s: best design differs:\n  p=1: %s\n  p=4: %s", alg, serial.Best, parallel.Best)
		}
	}
}

// TestStudyCancelReturnsPartial: canceling mid-study returns the
// history so far and the best-so-far design without the final
// re-simulation.
func TestStudyCancelReturnsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	told := 0
	res, err := (&Study{
		Workloads: []string{"efficientnet-b0"},
		Objective: PerfPerTDP,
		Algorithm: search.AlgRandom,
		Trials:    5000,
		Seed:      2,
	}).Run(ctx, WithParallelism(2), WithTranscript(func(batch []search.Trial) {
		if told += len(batch); told == 2*defaultBatchSize {
			cancel()
		}
	}))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	n := len(res.Search.History)
	if n == 0 || n >= 5000 {
		t.Errorf("partial history = %d trials, want some but not all", n)
	}
	if res.Best != nil && len(res.PerWorkload) != 0 {
		t.Error("canceled study must skip the final per-workload re-simulation")
	}
	if res.Search.Best.Feasible && res.Best == nil {
		t.Error("canceled study must still decode the best-so-far design")
	}
}

// TestStudyProgressOrder: the transcript hook observes every trial in
// deterministic history order even when evaluations run concurrently.
func TestStudyProgressOrder(t *testing.T) {
	var seen []search.Trial
	res, err := (&Study{
		Workloads: []string{"efficientnet-b0"},
		Objective: PerfPerTDP,
		Algorithm: search.AlgLCS,
		Trials:    24,
		Seed:      3,
	}).Run(context.Background(), WithParallelism(4), WithTranscript(func(batch []search.Trial) {
		seen = append(seen, batch...)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res.Search.History) {
		t.Fatalf("transcript hook saw %d trials, history has %d", len(seen), len(res.Search.History))
	}
	for i := range seen {
		if !seen[i].Equal(res.Search.History[i]) {
			t.Fatalf("transcript order diverges from history at trial %d", i)
		}
	}
}

// finiteOptimizer proposes random points for a fixed number of asks and
// is exhausted after that.
type finiteOptimizer struct {
	search.Optimizer
	asks int
}

func (o *finiteOptimizer) Ask(n int) [][arch.NumParams]int {
	if o.asks == 0 {
		return nil
	}
	o.asks--
	return o.Optimizer.Ask(n)
}

// TestRunnerWorkersEndWithRun is the worker lifecycle guarantee: the
// pool's helpers live for the whole Run and no longer, however the Run
// ends — a normal end, a canceled context, a panicking objective, an
// exhausted optimizer. The goroutine count settles back to where it
// started.
func TestRunnerWorkersEndWithRun(t *testing.T) {
	const par = 4
	cases := []struct {
		name string
		// runner builds the Runner; its objective is wrapped to record
		// the goroutine count while evaluating.
		runner  func(obj search.BatchObjective, cancel func()) *runner
		objFail func(call int64) // called per objective call; may panic
		check   func(t *testing.T, res search.Result, err error)
	}{
		{
			name: "normal end",
			runner: func(obj search.BatchObjective, _ func()) *runner {
				return &runner{Optimizer: search.New(search.AlgRandom, 1, 64), BatchObjective: obj, Trials: 64, Parallelism: par}
			},
			check: func(t *testing.T, res search.Result, err error) {
				if err != nil || len(res.History) != 64 {
					t.Fatalf("err %v, %d trials; want nil, 64", err, len(res.History))
				}
			},
		},
		{
			name: "context cancel",
			runner: func(obj search.BatchObjective, cancel func()) *runner {
				told := 0
				return &runner{Optimizer: search.New(search.AlgRandom, 2, 100000), BatchObjective: obj, Trials: 100000, Parallelism: par,
					OnBatch: func(batch []search.Trial) {
						if told += len(batch); told == 2*defaultBatchSize {
							cancel()
						}
					}}
			},
			check: func(t *testing.T, res search.Result, err error) {
				if !errors.Is(err, context.Canceled) || len(res.History) != 2*defaultBatchSize {
					t.Fatalf("err %v, %d trials; want context.Canceled, %d", err, len(res.History), 2*defaultBatchSize)
				}
			},
		},
		{
			name: "objective panic",
			runner: func(obj search.BatchObjective, _ func()) *runner {
				return &runner{Optimizer: search.New(search.AlgRandom, 3, 640), BatchObjective: obj, Trials: 640, Parallelism: par}
			},
			objFail: func(call int64) {
				if call == 7 {
					panic("objective blew up")
				}
			},
			check: func(t *testing.T, res search.Result, err error) {
				if !fault.IsPanic(err) || fault.ClassOf(err) != fault.ClassTerminal {
					t.Fatalf("err = %v, want a terminal panic error", err)
				}
				if len(res.History)%defaultBatchSize != 0 || len(res.History) >= 640 {
					t.Fatalf("%d trials told: want whole batches only, and not all of them", len(res.History))
				}
			},
		},
		{
			name: "exhausted optimizer",
			runner: func(obj search.BatchObjective, _ func()) *runner {
				opt := &finiteOptimizer{Optimizer: search.New(search.AlgRandom, 4, 640), asks: 3}
				return &runner{Optimizer: opt, BatchObjective: obj, Trials: 640, Parallelism: par}
			},
			check: func(t *testing.T, res search.Result, err error) {
				if err != nil || len(res.History) != 3*defaultBatchSize {
					t.Fatalf("err %v, %d trials; want nil, %d", err, len(res.History), 3*defaultBatchSize)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			before := runtime.NumGoroutine()
			var calls atomic.Int64
			var peak atomic.Int64
			obj := func(idxs [][arch.NumParams]int) []search.Evaluation {
				if n := int64(runtime.NumGoroutine()); n > peak.Load() {
					peak.Store(n)
				}
				if tc.objFail != nil {
					tc.objFail(calls.Add(1))
				}
				time.Sleep(100 * time.Microsecond) // let the helpers overlap
				return pointwise(smooth)(idxs)
			}
			res, err := tc.runner(obj, cancel).Run(ctx)
			tc.check(t, res, err)
			if peak.Load() <= int64(before) {
				t.Fatalf("no helper was running during the Run (peak %d goroutines, %d before)", peak.Load(), before)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Run, %d before: a worker outlived its Run", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// fixedOptimizer asks the same points every batch out of one slice, so
// allocation counts measure the Runner alone.
type fixedOptimizer struct{ batch [][arch.NumParams]int }

func (o *fixedOptimizer) Ask(n int) [][arch.NumParams]int { return o.batch[:n] }
func (o *fixedOptimizer) Tell([]search.Trial)             {}

// TestRunnerMemoHitBatchesAllocateNothing is the allocation guard on the
// warm loop: a batch made only of memo hits allocates nothing of its
// own, so a Run's allocation count grows with its budget only by the
// history's doublings.
func TestRunnerMemoHitBatchesAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	opt := &fixedOptimizer{}
	var warm []search.Trial
	for i := 0; i < defaultBatchSize; i++ {
		idx := [arch.NumParams]int{i % 4, i / 4, 1}
		opt.batch = append(opt.batch, idx)
		warm = append(warm, search.Trial{Index: idx, Evaluation: smooth(idx)})
	}
	allocs := func(trials int) float64 {
		rn := &runner{Optimizer: opt, Warm: warm, Trials: trials, Parallelism: 4,
			BatchObjective: func([][arch.NumParams]int) []search.Evaluation {
				t.Fatal("a memo hit reached the objective")
				return nil
			}}
		return testing.AllocsPerRun(5, func() {
			if _, err := rn.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(64*defaultBatchSize), allocs(1024*defaultBatchSize)
	t.Logf("allocations per Run: %.0f at 64 batches, %.0f at 1024", small, large)
	// 960 more batches; the history doubles 4 more times.
	if large-small > 8 {
		t.Errorf("960 more memo-hit batches cost %.0f more allocations, want at most 8", large-small)
	}
}

// TestRunnerHugeBudgetCostsNothingUpFront: a Run allocates for the
// trials it tells, never for its budget, since a served study may ask
// for a budget far beyond what it will run before it is canceled.
func TestRunnerHugeBudgetCostsNothingUpFront(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation figures are not meaningful under the race detector")
	}
	const huge = math.MaxInt
	rn := &runner{
		Optimizer:      &finiteOptimizer{Optimizer: search.New(search.AlgLCS, 5, huge), asks: 2},
		BatchObjective: pointwise(smooth),
		Trials:         huge,
		Parallelism:    2,
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := rn.Run(context.Background())
	runtime.ReadMemStats(&after)
	if err != nil || len(res.History) != 2*defaultBatchSize {
		t.Fatalf("err %v, %d trials; want nil, %d", err, len(res.History), 2*defaultBatchSize)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("two batches of a MaxInt-trial budget allocated %d bytes", got)
	}
}

// TestStudyEvaluatesEachDesignOnce wraps a real study's batch objective:
// no two points it evaluates are canonically equal (arch.Space.Canonical,
// one vector per design), though the optimizer does propose aliases,
// and each told trial keeps the vector that was asked.
func TestStudyEvaluatesEachDesignOnce(t *testing.T) {
	var mu sync.Mutex
	evaluated := map[[arch.NumParams]int]bool{}
	var dup [arch.NumParams]int
	dups := 0
	wrap := func(_ context.Context, _ EvalSpec, local search.BatchObjective) search.BatchObjective {
		return func(idxs [][arch.NumParams]int) []search.Evaluation {
			mu.Lock()
			for _, idx := range idxs {
				c := arch.Space{}.Canonical(idx)
				if evaluated[c] {
					dup, dups = idx, dups+1
				}
				evaluated[c] = true
			}
			mu.Unlock()
			return local(idxs)
		}
	}
	res, err := (&Study{
		Workloads: []string{"efficientnet-b0"},
		Objective: PerfPerTDP,
		Algorithm: search.AlgLCS,
		Trials:    600,
		Seed:      1,
	}).Run(context.Background(), WithDispatch(wrap), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if dups > 0 {
		t.Fatalf("%d evaluations repeat a design already evaluated, e.g. %v", dups, dup)
	}
	asked := map[[arch.NumParams]int]bool{}
	for _, tr := range res.Search.History {
		asked[tr.Index] = true
	}
	if len(asked) <= len(evaluated) {
		t.Fatalf("%d distinct vectors asked, %d designs evaluated: no alias was proposed, the test has no teeth", len(asked), len(evaluated))
	}
	t.Logf("%d trials, %d distinct vectors asked, %d designs evaluated", len(res.Search.History), len(asked), len(evaluated))
}
