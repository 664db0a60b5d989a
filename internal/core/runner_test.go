package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"fast/internal/arch"
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
			rn := &Runner{
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
	rn := &Runner{
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
	told := 0
	rn := &Runner{
		Optimizer: search.New(search.AlgRandom, 1, 100000),
		BatchObjective: pointwise(func(idx [arch.NumParams]int) search.Evaluation {
			time.Sleep(time.Millisecond)
			return smooth(idx)
		}),
		Trials:      100000,
		Parallelism: 2,
		OnTrial: func(search.Trial) {
			told++
			if told == defaultBatchSize {
				cancel()
			}
		},
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
	}).Run(ctx, WithParallelism(2), WithProgress(func(search.Trial) {
		told++
		if told == 2*defaultBatchSize {
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

// TestStudyProgressOrder: the progress callback observes every trial in
// deterministic history order even when evaluations run concurrently.
func TestStudyProgressOrder(t *testing.T) {
	var seen []search.Trial
	res, err := (&Study{
		Workloads: []string{"efficientnet-b0"},
		Objective: PerfPerTDP,
		Algorithm: search.AlgLCS,
		Trials:    24,
		Seed:      3,
	}).Run(context.Background(), WithParallelism(4), WithProgress(func(tr search.Trial) {
		seen = append(seen, tr)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res.Search.History) {
		t.Fatalf("progress saw %d trials, history has %d", len(seen), len(res.Search.History))
	}
	for i := range seen {
		if !seen[i].Equal(res.Search.History[i]) {
			t.Fatalf("progress order diverges from history at trial %d", i)
		}
	}
}
