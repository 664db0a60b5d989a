package core

// The process-wide workload-graph and compiled-plan caches.
//
// All design-independent simulator analysis for a (workload, batch,
// options) triple is done once per process by sim.Compile and shared —
// by every trial of a study, across studies, and across tenants in a
// long-lived server — so per-trial work reduces to Plan.ScoreBatch.
// Under multi-tenancy the caches are shared cross-tenant state, so each
// holds at most cacheCap entries: a new key arriving at a full cache
// replaces its map wholesale, as a full shard of a plan's design memo
// is (internal/sim/memo.go). A drop can never change a result — graphs
// and plans rebuild deterministically — and a caller still holding a
// dropped plan keeps using it.

import (
	"sync"

	"fast/internal/hlo"
	"fast/internal/models"
	"fast/internal/sim"
)

// cacheCap bounds each process-wide cache. fast-experiments -exp all,
// the largest in-tree user, compiles 221 plans (13.9 MB of
// Plan.SizeBytes, 44.5 MiB of heap after GC at exit); every registry
// model (19) at every native batch (9) under the search and report
// option sets would be 342. A plan's tables average about 63 KB there,
// plus its memo's bound (Plan.SizeBytes' comment: 0.6 MiB of scores,
// 0.2 MiB of latencies by timing key), so a full cache of search plans
// holds at most about 512 × (63 KB + 0.8 MiB).
const cacheCap = 512

// buildCache builds each key's value at most once. The lock covers only
// the map and the counters, never a build: concurrent requesters for one
// key wait on that key's sync.Once while other keys proceed, and a
// requester that found an entry before a drop still gets its value.
type buildCache[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*buildEntry[V]

	hits, misses, drops uint64
}

type buildEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

// get returns k's value, running build for it if k is not cached.
func (c *buildCache[K, V]) get(k K, build func() (V, error)) (V, error) {
	c.mu.Lock()
	e, ok := c.m[k]
	if ok {
		c.hits++
	} else {
		c.misses++
		if len(c.m) >= cacheCap {
			c.drops += uint64(len(c.m))
			c.m = nil
		}
		if c.m == nil {
			c.m = make(map[K]*buildEntry[V])
		}
		e = new(buildEntry[V])
		c.m[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.v, e.err = build() })
	return e.v, e.err
}

// stats snapshots the cache counters.
func (c *buildCache[K, V]) stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.drops, Entries: len(c.m)}
}

// graphKey identifies one workload graph: NativeBatch is a searched
// hyperparameter, so each batch size materializes its own graph.
type graphKey struct {
	model string
	batch int64
}

// planKey identifies one compiled simulation plan: a workload graph
// under a specific simulator-options fingerprint.
type planKey struct {
	graphKey
	fp string
}

// graphs and plans are the process-wide caches shared by Study.Run and
// EvaluateDesign. Graphs and plans are immutable after construction
// (a plan's design memo synchronizes itself), so every study evaluates
// one shared value concurrently.
var (
	graphs = &buildCache[graphKey, *hlo.Graph]{}
	plans  = &buildCache[planKey, *sim.Plan]{}
)

// planFor returns the compiled plan for (name, batch, opts). fp must be
// opts.Fingerprint(), hoisted out so per-batch callers don't re-render
// it (it is constant across a study).
func planFor(name string, batch int64, fp string, opts sim.Options) (*sim.Plan, error) {
	gk := graphKey{model: name, batch: batch}
	return plans.get(planKey{gk, fp}, func() (*sim.Plan, error) {
		g, err := graphs.get(gk, func() (*hlo.Graph, error) { return models.Build(name, batch) })
		if err != nil {
			return nil, err
		}
		return sim.Compile(g, opts)
	})
}

// PlanCacheStats is a point-in-time snapshot of the plan cache's
// counters, exported at /debug/vars by internal/serve.
type PlanCacheStats struct {
	// Hits and Misses count requests that found / did not find their
	// plan cached; Evictions counts plans dropped at the cap.
	Hits, Misses, Evictions uint64
	// Entries is the current cached plan count.
	Entries int
}

// PlanCacheInfo returns a snapshot of the process-wide plan cache's
// size and hit/miss/eviction counters.
func PlanCacheInfo() PlanCacheStats { return plans.stats() }
