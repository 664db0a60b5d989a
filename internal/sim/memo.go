package sim

// Per-plan design memo.
//
// Plan.Evaluate's design-dependent work has two expensive parts: the
// schedule mapping of every unique matrix problem (mapping.Best over the
// scheme universe) and the fusion placement assignment (the greedy
// selection, or the exact ILP). Both are memoized per design in one
// sharded table per Plan, keyed on the whole design: its SubKey (all 16
// searched parameters, dead L2 multipliers canonicalized) plus the fixed
// platform attributes. Everything else (the traffic-floor extras, KV
// eligibility, the latency and power roll-up) costs less than a lookup
// and is computed on every evaluation.
//
// The study runner already memoizes per canonical design, so within one
// study no design reaches a plan twice. What the memo serves is the same
// design evaluated again on a shared plan: a study re-run or resumed in
// fast-serve, the final exact report of a study's winner, and
// fast-experiments reporting one design under several ids.
//
// A design's entry holds its mappings and one fusion assignment per
// softmax variant, each filled at most once (sync.Once), immutable
// afterwards and shared read-only by concurrent Evaluates. The key covers
// every arch.Config field but Name (TestMemoKeyCoversConfig), so a hit is
// bit-identical to recomputation; the differential tests hold the
// memoized path to the frozen pre-split simulator.

import (
	"fmt"
	"math"
	"sync"

	"fast/internal/arch"
	"fast/internal/fusion"
	"fast/internal/mapping"
)

// designKey identifies one design: every arch.Config field but Name.
type designKey struct {
	sub   uint64
	cores int64
	clock float64
	mem   arch.MemTech
}

func keyOf(cfg *arch.Config) designKey {
	return designKey{sub: cfg.SubKey(), cores: cfg.Cores, clock: cfg.ClockGHz, mem: cfg.Mem}
}

const (
	// memoShards spreads entries over independently locked shards so
	// concurrent Evaluate calls rarely contend.
	memoShards = 16
	// memoShardCap bounds each shard; a full shard is dropped wholesale
	// (recomputation is deterministic, so eviction can never change a
	// result). Bounds per-plan memo memory in long-lived processes.
	memoShardCap = 256
)

// designMemo maps designs to their entries. The shard lock covers only
// the map access, never the work that fills an entry.
type designMemo struct {
	shards [memoShards]memoShard
}

type memoShard struct {
	mu sync.Mutex
	m  map[designKey]*designEntry
}

// designEntry is one design's memoized work on one plan.
type designEntry struct {
	mapOnce sync.Once
	// mapped is the best schedule mapping of every unique matrix
	// problem, in dense problem order.
	mapped []mapping.Mapping
	// fusion holds the placement assignment per softmax variant
	// (indexed like evaluate's algIdx).
	fusion [2]struct {
		once sync.Once
		asn  fusion.Assignment
	}
}

// shard returns the shard that holds k.
func (c *designMemo) shard(k designKey) *memoShard {
	return &c.shards[mix(k.sub^math.Float64bits(k.clock)^uint64(k.cores)<<40^uint64(k.mem)<<56)%memoShards]
}

// entry returns cfg's entry, creating an empty one on first use.
func (c *designMemo) entry(cfg *arch.Config) *designEntry {
	k := keyOf(cfg)
	s := c.shard(k)
	s.mu.Lock()
	e, ok := s.m[k]
	if !ok {
		if s.m == nil || len(s.m) >= memoShardCap {
			s.m = make(map[designKey]*designEntry, 8)
		}
		e = new(designEntry)
		s.m[k] = e
	}
	s.mu.Unlock()
	return e
}

// mix is a Fibonacci-style bit mixer for shard selection.
func mix(x uint64) uint64 {
	x *= 0x9E3779B97F4A7C15
	return x ^ x>>32
}

// mappings returns the design's schedule mappings, running the mapper
// on first use. The slice is memo-owned and read-only.
func (e *designEntry) mappings(p *Plan, cfg *arch.Config) []mapping.Mapping {
	e.mapOnce.Do(func() {
		e.mapped = make([]mapping.Mapping, len(p.problems))
		for i := range p.problems {
			e.mapped[i] = mapping.Best(p.problems[i], cfg, p.opts.Mapping)
		}
	})
	return e.mapped
}

// resolveFusion resolves the fusion Solution for cfg under softmax
// variant algIdx into sol: the placement assignment is the memoized one
// (the first caller pays the greedy or ILP solve on its costs), the
// per-design roll-up is re-derived into sol's own slices, never the
// memoized assignment's.
func (e *designEntry) resolveFusion(p *Plan, cfg *arch.Config, algIdx int, costs []fusion.RegionCost, sol *fusion.Solution) {
	f := &e.fusion[algIdx]
	f.once.Do(func() { f.asn = fusion.SolvePlanned(costs, p.usable, cfg.GlobalBytes(), p.opts.Fusion) })
	fusion.ResolvePlanned(sol, costs, cfg.GlobalBytes(), f.asn)
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

// evalScratch pools the per-evaluate working memory that does not escape
// into the Result: the fusion region-cost table and the traffic-floor
// extras. (Per-region stats and op shares are part of the returned
// Result; only ScoreBatch, whose caller drops each Result before the
// next, reuses them — resultBuf.)
type evalScratch struct {
	costs  []fusion.RegionCost
	extras []int64
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

// trafficExtras fills the scratch's extras table for an effective
// blocking capacity: each of p's unique problems' DRAM-traffic floor
// beyond its compulsory bytes.
func (s *evalScratch) trafficExtras(p *Plan, capBytes int64) []int64 {
	if cap(s.extras) < len(p.problems) {
		s.extras = make([]int64, len(p.problems))
	}
	s.extras = s.extras[:len(p.problems)]
	for i := range p.problems {
		s.extras[i] = mapping.TrafficFloor(p.problems[i], capBytes) - p.compulsory[i]
	}
	return s.extras
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
// fusion placement resolves into, and the region and op-share tables, sized
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
// plan. Results are bit-identical to calling Evaluate per design and
// positionally aligned with cfgs.
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
// each design's index in cfgs and its Result, in cfgs order; the Result
// and everything it references are valid only until score returns,
// because the next design is written into the same per-region tables
// instead of fresh ones. Validation and arithmetic are EvaluateBatch's:
// only who owns the memory differs. Safe for concurrent use on one
// shared Plan.
func (p *Plan) ScoreBatch(cfgs []*arch.Config, score func(i int, r *Result)) (err error) {
	bufs := scorePool.Get().(*scoreBufs)
	defer scorePool.Put(bufs)
	err = p.evaluateBatch(cfgs, bufs, score)
	return
}

// evaluateBatch validates cfgs, then evaluates them in order into bufs
// (nil: fresh Results) and hands each design's index and Result to each.
func (p *Plan) evaluateBatch(cfgs []*arch.Config, bufs *scoreBufs, each func(i int, r *Result)) error {
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("sim: batch design %d: %w", i, err)
		}
	}
	for i, cfg := range cfgs {
		each(i, p.evaluateValidated(cfg, bufs))
	}
	return nil
}
