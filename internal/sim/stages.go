package sim

// Factored evaluation: parameter-sliced stage memoization.
//
// FAST's search loop evaluates thousands of designs drawn from a
// Cartesian grid of discrete hyperparameters, so consecutive trials share
// most of their architecture parameters. Plan.Evaluate exploits that by
// splitting its design-dependent work into stages keyed by the sub-tuple
// of arch.Config parameters each stage actually reads, and memoizing the
// stages across trials in sharded per-Plan caches:
//
//   - mapping stage: the schedule mapper reads only the PE grid, the
//     systolic-array dims, and the L1 discipline/sizes (plus the plan's
//     mapping options, whose scheme restriction participates in the key
//     via mapping.Options.SchemeKey — a restricted-scheme search must
//     never hit a full-universe entry). Keyed by
//     arch.Config.SubKey(mappingParams) + the scheme key.
//
//   - residency stage: the mapper's DRAM-traffic floor beyond compulsory
//     bytes reads only the effective blocking capacity, so it is keyed by
//     that derived byte count directly — every memory-hierarchy shape
//     with the same capacity shares one entry.
//
//   - fusion stage: the placement assignment (which regions pin weights,
//     which keep their primary edge in Global Memory) is a deterministic
//     function of the per-region cost table, which in turn folds every
//     searched parameter except the native batch (the batch only selects
//     the plan), plus clock and memory technology. The assignment — the
//     expensive half: greedy selection, optionally the ILP — is memoized;
//     the cheap per-design roll-up (times, peak usage) is re-derived from
//     it via fusion.ResolvePlanned. This is what makes re-evaluating a
//     winning design with the full ILP solve (Study.Run's final pass,
//     EvaluateDesign harnesses) nearly free after the first solve.
//
// The power/area roll-up is not a stage: power.Model.Evaluate is a few
// dozen flops, cheaper than a cache lookup, so Evaluate calls it on
// every design.
//
// Stage values are computed at most once per key (sync.Once entries), are
// immutable afterwards, and are shared read-only by every concurrent
// Evaluate — which also deduplicates work when the study runner's
// workers call ScoreBatch on one shared Plan. Keys cover exactly the
// fields a stage reads, so a cache hit is bit-identical to
// recomputation (the differential and fuzz tests in plan_test.go
// enforce this against the frozen pre-split simulator).

import (
	"fmt"
	"sort"
	"sync"

	"fast/internal/arch"
	"fast/internal/fusion"
	"fast/internal/mapping"
)

// mappingParams is the sub-tuple of searched hyperparameters the schedule
// mapper reads: tile geometry (systolic dims), PE-grid parallelism, and
// L1 feasibility (sharing discipline + scratchpad sizes). The mapper
// never sees L2, Global Memory, DRAM channels, the VPU width, or the
// native batch — nor any fixed platform attribute.
var mappingParams = arch.MaskOf(
	arch.PPEsX, arch.PPEsY, arch.PSAx, arch.PSAy,
	arch.PL1Config, arch.PL1Input, arch.PL1Weight, arch.PL1Output,
)

// mapKey identifies one mapping-stage cache entry.
type mapKey struct {
	sub uint64
	// schemes is the plan's mapping.Options.SchemeKey(): defensive
	// against any future sharing of stage caches across plans, and the
	// reason a restricted-scheme search can never alias a full-universe
	// entry.
	schemes uint64
}

// fusionParams is the sub-tuple the fusion stage depends on: the
// per-region cost table folds mapping cycles, VPU and DRAM times, and
// capacity decisions, touching every searched parameter except the
// native batch.
var fusionParams = arch.AllParams &^ arch.MaskOf(arch.PNativeBatch)

// kvParams is the sub-tuple the KV-eligibility stage reads: whether a
// region's persistent KV-cache slab fits in Global Memory depends only
// on the GM capacity. (The fusion stage that consumes the resulting cost
// entries already folds PGlobal via fusionParams, so the fusion cache
// key stays sound.)
var kvParams = arch.MaskOf(arch.PGlobal)

// fusionKey identifies one fusion-stage cache entry; alg distinguishes
// the softmax variant (it changes vector times and DRAM extras, and so
// the cost table).
type fusionKey struct {
	sub   uint64
	cores int64
	clock float64
	mem   arch.MemTech
	alg   uint8
}

const (
	// stageShards spreads cache entries over independently locked shards
	// so concurrent Evaluate calls rarely contend.
	stageShards = 16
	// stageShardCap bounds each shard; a full shard is dropped wholesale
	// (recomputation is deterministic, so eviction can never change a
	// result). Bounds per-plan cache memory in long-lived processes.
	stageShardCap = 256
)

// stageCache is a sharded once-per-key memo table. Entries are computed
// at most once and immutable afterwards; the shard lock covers only the
// map access, never the compute.
type stageCache[K comparable, V any] struct {
	shards [stageShards]struct {
		mu sync.Mutex
		m  map[K]*stageEntry[V]
	}
}

type stageEntry[V any] struct {
	once sync.Once
	v    V
}

// get returns the memoized value for key, computing it on first use.
// hash only picks the shard; the full key disambiguates within it.
func (c *stageCache[K, V]) get(hash uint64, key K, compute func() V) V {
	s := &c.shards[hash%stageShards]
	s.mu.Lock()
	e, ok := s.m[key]
	if !ok {
		if s.m == nil || len(s.m) >= stageShardCap {
			s.m = make(map[K]*stageEntry[V], 8)
		}
		e = new(stageEntry[V])
		s.m[key] = e
	}
	s.mu.Unlock()
	e.once.Do(func() { e.v = compute() })
	return e.v
}

// mix is a Fibonacci-style bit mixer for shard selection.
func mix(x uint64) uint64 {
	x *= 0x9E3779B97F4A7C15
	return x ^ x>>32
}

// capacityBytes is the effective blocking capacity for the mapper's
// traffic floor: the largest on-chip level available for working tiles.
func capacityBytes(cfg *arch.Config) int64 {
	capBytes := cfg.GlobalBytes()
	if capBytes == 0 {
		capBytes = cfg.NumPEs() * cfg.L2BytesPerPE()
	}
	if capBytes == 0 {
		capBytes = cfg.NumPEs() * cfg.L1BytesPerPE()
	}
	return capBytes
}

// mappedFor returns the mapping-stage results for cfg: the best schedule
// mapping of every unique matrix problem, in dense problem order. The
// slice is cache-owned and read-only.
//
//fast:stage mask=mappingParams
func (p *Plan) mappedFor(cfg *arch.Config) []mapping.Mapping {
	key := mapKey{sub: cfg.SubKey(mappingParams), schemes: p.schemeKey}
	return p.mapCache.get(mix(key.sub^key.schemes), key, func() []mapping.Mapping {
		out := make([]mapping.Mapping, len(p.problems))
		for i := range p.problems {
			out[i] = mapping.Best(p.problems[i], cfg, p.opts.Mapping)
		}
		return out
	})
}

// floorFor returns the residency-stage results for an effective blocking
// capacity: each unique problem's DRAM-traffic floor beyond its
// compulsory bytes. The slice is cache-owned and read-only. The cache
// key is the derived capacity itself, not a Config sub-tuple, so the
// declared mask is empty.
//
//fast:stage mask=0
func (p *Plan) floorFor(capBytes int64) []int64 {
	return p.floorCache.get(mix(uint64(capBytes)), capBytes, func() []int64 {
		out := make([]int64, len(p.problems))
		for i := range p.problems {
			out[i] = mapping.TrafficFloor(p.problems[i], capBytes) - p.compulsory[i]
		}
		return out
	})
}

// kvEligibleFor returns the KV-eligibility stage for cfg: per region,
// whether its KV-cache slab is a viable Global-Memory hold candidate
// (non-zero and within GM capacity). The slice is cache-owned and
// read-only; plans without KV-cache reads never call this.
//
//fast:stage mask=kvParams
func (p *Plan) kvEligibleFor(cfg *arch.Config) []bool {
	key := cfg.SubKey(kvParams)
	return p.kvCache.get(mix(key), key, func() []bool {
		out := make([]bool, len(p.regions))
		gm := cfg.GlobalBytes()
		for i := range p.regions {
			kv := p.regions[i].io.KVBytes
			out[i] = kv > 0 && kv <= gm
		}
		return out
	})
}

// fusionFor resolves the fusion Solution for cfg under the given softmax
// variant into sol: the placement assignment comes from the stage cache
// (first caller pays the greedy/ILP solve), the per-design roll-up is
// re-derived into sol's own slices, never the cached assignment's.
//
//fast:stage mask=fusionParams fixed=cores,clock,mem
func (p *Plan) fusionFor(cfg *arch.Config, algIdx int, costs []fusion.RegionCost, sol *fusion.Solution) {
	key := fusionKey{
		sub:   cfg.SubKey(fusionParams),
		cores: cfg.Cores,
		clock: cfg.ClockGHz,
		mem:   cfg.Mem,
		alg:   uint8(algIdx),
	}
	h := mix(key.sub ^ uint64(key.cores)<<40 ^ uint64(key.mem)<<56 ^ uint64(key.alg)<<60)
	asn := p.fusionCache.get(h, key, func() fusion.Assignment {
		return fusion.SolvePlanned(costs, p.usable, cfg.GlobalBytes(), p.opts.Fusion)
	})
	fusion.ResolvePlanned(sol, costs, cfg.GlobalBytes(), asn)
}

// evalScratch pools the per-evaluate working memory that does not escape
// into the Result: the fusion region-cost table. (Per-region stats and
// op shares are part of the returned Result; only ScoreBatch, whose
// caller drops each Result before the next, reuses them — resultBuf.)
type evalScratch struct {
	costs []fusion.RegionCost
}

var scratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

// regionCosts returns a zeroed region-cost buffer of length n; the
// owning evalScratch goes back via scratchPool.Put when the evaluation
// is done with the buffer.
func (s *evalScratch) regionCosts(n int) []fusion.RegionCost {
	if cap(s.costs) < n {
		s.costs = make([]fusion.RegionCost, n)
	}
	s.costs = s.costs[:n]
	for i := range s.costs {
		s.costs[i] = fusion.RegionCost{}
	}
	return s.costs
}

// resultBuf is the memory of one Result that ScoreBatch reuses design
// after design: the Result itself, its fusion Solution, its per-region
// stats and its op shares (one backing array, sliced per region).
type resultBuf struct {
	res    Result
	sol    fusion.Solution
	stats  []RegionStats
	shares []OpShare
}

// scoreBufs holds one resultBuf per softmax variant (indexed like
// evaluate's algIdx): an AutoSoftmax evaluation keeps both variants'
// Results until it picks one.
type scoreBufs [2]resultBuf

var scorePool = sync.Pool{New: func() any { return new(scoreBufs) }}

// result returns a zeroed Result for evaluate to fill, the Solution the
// fusion stage resolves into, and the region and op-share tables, sized
// for nRegions regions and nOps ops: fresh allocations when b is nil,
// b's memory otherwise (the Solution's slices are refilled in place).
// evaluate sets every field of a stats entry before reading it, so the
// stats table is not cleared.
func (b *resultBuf) result(nRegions, nOps int) (*Result, *fusion.Solution, []RegionStats, []OpShare) {
	if b == nil {
		res := new(Result)
		return res, &res.Fusion, make([]RegionStats, nRegions), make([]OpShare, 0, nOps)
	}
	b.res = Result{}
	if cap(b.stats) < nRegions {
		b.stats = make([]RegionStats, nRegions)
	}
	if cap(b.shares) < nOps {
		b.shares = make([]OpShare, 0, nOps)
	}
	return &b.res, &b.sol, b.stats[:nRegions], b.shares[:0]
}

// EvaluateBatch evaluates many candidate datapaths against one compiled
// plan. Results are bit-identical to calling Evaluate per design — and
// positionally aligned with cfgs — but the batch is walked in
// mapping-sub-key order (capacity as the secondary key), so designs that
// share a stage land consecutively and hit the stage caches while they
// are hot. Ask/tell optimizer batches are exactly this shape:
// consecutive proposals perturb a few parameters around incumbents, so
// most of a sorted batch shares its mapping and residency stages.
//
// Every config is validated up front; an invalid design fails the whole
// batch (the search engine filters infeasible decodes before reaching
// the simulator). Safe for concurrent use on one shared Plan.
func (p *Plan) EvaluateBatch(cfgs []*arch.Config) ([]*Result, error) {
	results := make([]*Result, len(cfgs))
	if err := p.evaluateBatch(cfgs, nil, func(i int, r *Result) { results[i] = r }); err != nil {
		return nil, err
	}
	return results, nil
}

// ScoreBatch is EvaluateBatch for a caller that reads a few figures off
// each Result and drops it — the study evaluator's shape. score receives
// each design's index in cfgs and its Result, in the batch's walk order;
// the Result and everything it references are valid only until score
// returns, because the next design is written into the same per-region
// tables instead of fresh ones. Validation, walk order and arithmetic
// are EvaluateBatch's: only who owns the memory differs. Safe for
// concurrent use on one shared Plan.
func (p *Plan) ScoreBatch(cfgs []*arch.Config, score func(i int, r *Result)) (err error) {
	bufs := scorePool.Get().(*scoreBufs)
	defer scorePool.Put(bufs)
	err = p.evaluateBatch(cfgs, bufs, score)
	return
}

// evaluateBatch validates cfgs, then evaluates them in stage-sharing
// order into bufs (nil: fresh Results) and hands each design's index
// and Result to each.
func (p *Plan) evaluateBatch(cfgs []*arch.Config, bufs *scoreBufs, each func(i int, r *Result)) error {
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("sim: batch design %d: %w", i, err)
		}
	}
	type sortKey struct {
		sub uint64
		cap int64
	}
	keys := make([]sortKey, len(cfgs))
	order := make([]int, len(cfgs))
	for i, cfg := range cfgs {
		keys[i] = sortKey{sub: cfg.SubKey(mappingParams), cap: capacityBytes(cfg)}
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ka, kb := keys[order[a]], keys[order[b]]
		if ka.sub != kb.sub {
			return ka.sub < kb.sub
		}
		return ka.cap < kb.cap
	})
	for _, i := range order {
		each(i, p.evaluateValidated(cfgs[i], bufs))
	}
	return nil
}
