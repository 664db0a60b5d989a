package core

// The process-wide compiled-plan cache.
//
// All design-independent simulator analysis for a (workload, batch,
// options) triple is done once per process by sim.Compile and shared —
// by every trial of a study, across studies, and across tenants in a
// long-lived server — so per-trial work reduces to Plan.Evaluate. Under
// multi-tenancy the cache is shared cross-tenant state, so it is
// LRU-bounded: SetPlanCacheBudget caps it by entry count and/or by
// accounted bytes (sim.Plan.SizeBytes), eviction drops the least
// recently used plan, and PlanCacheInfo exports hit/miss/eviction
// counters for the metrics endpoint. Eviction can never change a
// result — plans recompile deterministically — it only costs the next
// requester one Compile (~100µs).

import (
	"container/list"
	"sync"

	"fast/internal/sim"
)

// planKey identifies one compiled simulation plan: a workload graph at a
// specific batch under a specific simulator-options fingerprint.
type planKey struct {
	model string
	batch int64
	fp    string
}

// PlanCacheBudget bounds the process-wide plan cache. Zero fields are
// unbounded (the default: search workloads are a handful of plans);
// servers admitting many tenants should set both.
type PlanCacheBudget struct {
	// MaxEntries caps the number of cached plans; <= 0 is unbounded.
	MaxEntries int
	// MaxBytes caps the accounted resident size (the sum of
	// sim.Plan.SizeBytes over cached plans); <= 0 is unbounded. A
	// single plan larger than the whole budget is kept anyway — a cache
	// that cannot hold the plan it was just asked for would thrash —
	// so the bound holds whenever the cache has more than one entry.
	MaxBytes int64
}

// PlanCacheStats is a point-in-time snapshot of the plan cache's
// counters, exported at /debug/vars by internal/serve.
type PlanCacheStats struct {
	// Hits and Misses count get requests that found / did not find
	// their key cached; Evictions counts plans dropped by the budget.
	Hits, Misses, Evictions uint64
	// Entries and Bytes are the current cached plan count and their
	// accounted resident size.
	Entries int
	Bytes   int64
}

// planCache is an LRU-bounded once-per-key compile cache. The global
// lock covers only map/recency bookkeeping, never a compile: each entry
// compiles at most once (sync.Once), with concurrent requesters for the
// same key waiting on that compile while other keys proceed. Plans are
// immutable, so runner workers evaluate one shared Plan concurrently
// without synchronization, and an evicted plan stays valid for every
// caller still holding it.
type planCache struct {
	mu     sync.Mutex
	m      map[planKey]*planEntry
	lru    list.List // of *planEntry; front = most recently used
	budget PlanCacheBudget
	bytes  int64

	hits, misses, evictions uint64
}

type planEntry struct {
	key  planKey
	elem *list.Element

	once sync.Once
	p    *sim.Plan
	err  error

	// Accounting state, guarded by the cache mutex. bytes is accounted
	// once, by the creating requester, after the compile finishes;
	// evicted entries that were never accounted contribute nothing.
	bytes     int64
	accounted bool
	evicted   bool
}

// get returns the compiled plan for (name, batch, opts). fp must be
// opts.Fingerprint(), hoisted out so per-trial callers don't re-render
// it (it is constant across a study).
func (pc *planCache) get(name string, batch int64, fp string, opts sim.Options) (*sim.Plan, error) {
	key := planKey{model: name, batch: batch, fp: fp}
	pc.mu.Lock()
	if pc.m == nil {
		pc.m = map[planKey]*planEntry{}
	}
	e, ok := pc.m[key]
	created := false
	if ok {
		pc.hits++
		pc.lru.MoveToFront(e.elem)
	} else {
		pc.misses++
		e = &planEntry{key: key}
		e.elem = pc.lru.PushFront(e)
		pc.m[key] = e
		created = true
	}
	pc.mu.Unlock()

	e.once.Do(func() {
		g, err := graphs.get(name, batch)
		if err != nil {
			e.err = err
			return
		}
		e.p, e.err = sim.Compile(g, opts)
	})

	if created {
		pc.mu.Lock()
		if !e.accounted && !e.evicted {
			e.accounted = true
			if e.p != nil {
				e.bytes = e.p.SizeBytes()
			}
			pc.bytes += e.bytes
			pc.evictOverLocked(e)
		}
		pc.mu.Unlock()
	}
	return e.p, e.err
}

// evictOverLocked drops least-recently-used entries until the budget
// holds. keep, when non-nil, is never evicted (the entry just inserted:
// evicting it would make the current request thrash).
func (pc *planCache) evictOverLocked(keep *planEntry) {
	over := func() bool {
		if pc.budget.MaxEntries > 0 && pc.lru.Len() > pc.budget.MaxEntries {
			return true
		}
		if pc.budget.MaxBytes > 0 && pc.bytes > pc.budget.MaxBytes {
			return true
		}
		return false
	}
	for over() {
		el := pc.lru.Back()
		if el == nil {
			return
		}
		victim := el.Value.(*planEntry)
		if victim == keep {
			return // the newest entry alone exceeds the budget
		}
		pc.lru.Remove(el)
		delete(pc.m, victim.key)
		if victim.accounted {
			pc.bytes -= victim.bytes
		}
		victim.evicted = true
		pc.evictions++
	}
}

// setBudget installs a budget and immediately evicts down to it.
func (pc *planCache) setBudget(b PlanCacheBudget) {
	pc.mu.Lock()
	pc.budget = b
	pc.evictOverLocked(nil)
	pc.mu.Unlock()
}

// stats snapshots the cache counters.
func (pc *planCache) stats() PlanCacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return PlanCacheStats{
		Hits:      pc.hits,
		Misses:    pc.misses,
		Evictions: pc.evictions,
		Entries:   pc.lru.Len(),
		Bytes:     pc.bytes,
	}
}

// plans is the process-wide plan cache shared by Study.Run and
// EvaluateDesign.
var plans = &planCache{}

// SetPlanCacheBudget bounds the process-wide compiled-plan cache shared
// by every study and evaluation. The zero budget (the default) is
// unbounded; long-lived multi-tenant servers should bound both entries
// and bytes (fast-serve's -cache-entries/-cache-bytes flags do).
// Shrinking the budget evicts immediately.
func SetPlanCacheBudget(b PlanCacheBudget) { plans.setBudget(b) }

// PlanCacheInfo returns a snapshot of the process-wide plan cache's
// size and hit/miss/eviction counters.
func PlanCacheInfo() PlanCacheStats { return plans.stats() }
