package core

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fast/internal/arch"
	"fast/internal/search"
	"fast/internal/sim"
)

// TestPlanCacheEntryBudget: a cache fed three caps' worth of distinct
// keys never holds more than cacheCap entries, counts every entry it
// drops, and rebuilds a dropped key while a surviving one stays a hit.
func TestPlanCacheEntryBudget(t *testing.T) {
	var c buildCache[int, int]
	builds := 0
	get := func(k int) int {
		t.Helper()
		v, err := c.get(k, func() (int, error) { builds++; return k, nil })
		if err != nil || v != k {
			t.Fatalf("get(%d) = %d, %v", k, v, err)
		}
		return v
	}
	const n = 3*cacheCap + 7
	for k := 0; k < n; k++ {
		get(k)
		if st := c.stats(); st.Entries > cacheCap {
			t.Fatalf("after %d keys the cache holds %d entries, cap %d", k+1, st.Entries, cacheCap)
		}
	}
	st := c.stats()
	if st.Misses != n || st.Hits != 0 || st.Evictions+uint64(st.Entries) != n || st.Evictions == 0 {
		t.Fatalf("stats after %d distinct keys = %+v: every miss is one entry, held or dropped", n, st)
	}
	get(n - 1) // the newest key survived the last drop
	get(0)     // the oldest did not
	if st := c.stats(); st.Hits != 1 || builds != n+1 {
		t.Fatalf("stats %+v after %d builds: want the newest key a hit and the oldest rebuilt", st, builds)
	}
}

// fillerKeys numbers the placeholder plans fillPlans inserts, so each
// call's keys are new to the cache.
var fillerKeys atomic.Int64

// fillPlans requests cacheCap placeholder plans from the process-wide
// cache: whatever it held before reaches the cap and is dropped.
func fillPlans() {
	for i := 0; i < cacheCap; i++ {
		k := planKey{graphKey{"placeholder", fillerKeys.Add(1)}, ""}
		plans.get(k, func() (*sim.Plan, error) { return nil, nil })
	}
}

// emptyPlans starts the process-wide plan cache afresh, so a test that
// counts its misses cannot meet a drop.
func emptyPlans() {
	plans.mu.Lock()
	plans.m = nil
	plans.mu.Unlock()
}

// TestPlanCacheEvictionPreservesResults: a drop never changes a result. A
// caller still holding a dropped plan keeps getting the same answers,
// the plan a re-request compiles evaluates bit-identically, and a study
// whose plans are dropped after every batch, its final report included,
// ends exactly like one whose plans stay cached.
func TestPlanCacheEvictionPreservesResults(t *testing.T) {
	opts := sim.FASTOptions()
	fp := opts.Fingerprint()
	cfg := arch.TPUv3()
	old, err := planFor("mobilenetv2", int64(cfg.NativeBatch), fp, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := old.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillPlans()
	held, err := old.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := planFor("mobilenetv2", int64(cfg.NativeBatch), fp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == old {
		t.Fatal("a re-request after the drop returned the dropped plan object")
	}
	re, err := fresh.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []*sim.Result{held, re} {
		if got.QPS != want.QPS || got.LatencySec != want.LatencySec ||
			got.PerfPerTDP != want.PerfPerTDP || got.Fusion.Total != want.Fusion.Total {
			t.Fatal("evaluation changed across the drop and recompile")
		}
	}

	st := Study{Workloads: []string{"efficientnet-b0"}, Trials: 64, Seed: 3}
	run := func(opts ...Option) *StudyResult {
		t.Helper()
		res, err := st.Run(context.Background(), append(opts, WithBatchSize(16), WithParallelism(2))...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run()
	before := PlanCacheInfo().Evictions
	dropped := run(WithTranscript(func([]search.Trial) { fillPlans() }))
	if PlanCacheInfo().Evictions == before {
		t.Fatal("no plan was dropped during the study")
	}
	if !reflect.DeepEqual(ref.Search.History, dropped.Search.History) {
		t.Error("the transcript changed when plans were dropped mid-study")
	}
	if len(ref.PerWorkload) != 1 || len(dropped.PerWorkload) != 1 {
		t.Fatalf("want one workload report on each side, got %d and %d", len(ref.PerWorkload), len(dropped.PerWorkload))
	}
	a, b := ref.PerWorkload[0].Result, dropped.PerWorkload[0].Result
	if a.QPS != b.QPS || a.PerfPerTDP != b.PerfPerTDP || a.Fusion.Total != b.Fusion.Total || a.Fusion.Method != b.Fusion.Method {
		t.Error("the final report changed when plans were dropped mid-study")
	}
}

// TestPlanCacheDropDuringCompile: requesters waiting on an entry that is
// still compiling when the map is dropped all receive the one value its
// build returns; a request after the drop builds anew.
func TestPlanCacheDropDuringCompile(t *testing.T) {
	var c buildCache[int, *int]
	started, release := make(chan struct{}), make(chan struct{})
	var builds atomic.Int64
	slow := func() (*int, error) {
		if builds.Add(1) == 1 {
			close(started)
			<-release
		}
		return new(int), nil
	}
	const waiters = 8
	got := make([]*int, waiters+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		got[0], _ = c.get(0, slow)
	}()
	<-started
	for w := 1; w <= waiters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w], _ = c.get(0, slow)
		}(w)
	}
	// Every waiter has found the compiling entry once it counted a hit.
	for c.stats().Hits < waiters {
		runtime.Gosched()
	}
	for k := 1; k <= cacheCap; k++ {
		c.get(k, func() (*int, error) { return new(int), nil })
	}
	if st := c.stats(); st.Evictions == 0 {
		t.Fatalf("filling the cache dropped nothing: %+v", st)
	}
	after, _ := c.get(0, slow)
	close(release)
	wg.Wait()
	for w := range got {
		if got[w] == nil || got[w] != got[0] {
			t.Fatalf("requester %d received %p, the first %p", w, got[w], got[0])
		}
	}
	if after == got[0] || builds.Load() != 2 {
		t.Fatalf("the request after the drop got the dropped entry's value (builds %d)", builds.Load())
	}
}

// TestPlanCacheBudgetSoak hammers one cache from concurrent requesters
// asking for twice as many distinct keys as the cap admits, the
// multi-tenant server's steady state. Run under -race, it pins that
// every request gets its key's value, the cap holds afterwards, and
// every miss is one entry, still held or counted as dropped.
func TestPlanCacheBudgetSoak(t *testing.T) {
	var c buildCache[int, *int]
	const workers, rounds = 8, 3 * cacheCap
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (w*7 + i) % (2 * cacheCap)
				v, err := c.get(k, func() (*int, error) { return &k, nil })
				if err != nil || v == nil || *v != k {
					t.Errorf("worker %d: get(%d) = %v, %v", w, k, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.stats()
	if st.Entries > cacheCap || st.Evictions == 0 {
		t.Errorf("soak left %d entries (cap %d) after %d drops", st.Entries, cacheCap, st.Evictions)
	}
	if st.Hits+st.Misses != workers*rounds || st.Evictions+uint64(st.Entries) != st.Misses {
		t.Errorf("stats %+v after %d requests", st, workers*rounds)
	}
}

// deadlineProbes counts the runs of TestGreedyPlansIgnoreILPDeadline in
// this process, so each run's deadlines are its own.
var deadlineProbes atomic.Int64

// TestGreedyPlansIgnoreILPDeadline runs four 16-trial resnet50 studies
// that differ only in their exact-ILP deadline, as fast-serve runs
// studies that set ilp_deadline_sec. The search plans are greedy and
// never read the deadline, so they are shared: each study after the
// first compiles only its report plan (one design, one workload).
func TestGreedyPlansIgnoreILPDeadline(t *testing.T) {
	emptyPlans()
	n := deadlineProbes.Add(1)
	for k := int64(0); k < 4; k++ {
		so := sim.FASTOptions()
		so.Fusion.Deadline = time.Second + time.Duration(4*n+k)*time.Millisecond
		st := Study{Workloads: []string{"resnet50"}, Trials: 16, Seed: 1, SimOptions: &so}
		before := PlanCacheInfo().Misses
		if _, err := st.Run(context.Background(), WithBatchSize(8), WithParallelism(2)); err != nil {
			t.Fatal(err)
		}
		misses := PlanCacheInfo().Misses - before
		if k == 0 && misses < 2 {
			t.Fatalf("the first study compiled %d plans into an empty cache, want its search and report plans", misses)
		}
		if k > 0 && misses != 1 {
			t.Errorf("study %d compiled %d plans, want only its report plan", k, misses)
		}
	}
}
