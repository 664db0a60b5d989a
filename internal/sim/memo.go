package sim

// Per-plan design memo.
//
// A study scores designs through Plan.ScoreBatch and reads four figures
// off each (Score). Each plan memoizes them per design, keyed on the
// whole design: its SubKey (all 16 searched parameters, dead L2
// multipliers canonicalized) plus the fixed platform attributes. Within
// one study the runner's canonical memo sends no design to a plan twice;
// a study re-run or resumed on a shared plan (fast-serve) pays one lookup
// per repeated design. Everything else is recomputed per evaluation
// (mappings into pooled scratch, traffic floor, KV eligibility, roll-up)
// except on a plan whose fusion is an exact solve: there each design's
// assignment per softmax variant is filled once (sync.Once), sparing a
// final report or a re-report a second branch-and-bound.
//
// The key covers every arch.Config field but Name
// (TestMemoKeyCoversConfig), so a hit is bit-identical to recomputation.
// A shard lock covers only its map access, never an evaluation: racing
// misses on one design each evaluate it to the same Score; one stores it.

import (
	"fmt"
	"math"
	"sync"

	"fast/internal/arch"
	"fast/internal/fusion"
	"fast/internal/mapping"
)

// Score is what a study reads off one design's evaluation: the Result
// fields of the same names.
type Score struct {
	ScheduleFailed              bool
	LatencySec, QPS, PerfPerTDP float64
}

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
	// concurrent evaluations rarely contend.
	memoShards = 16
	// memoShardCap bounds each shard; a full shard is dropped wholesale
	// (recomputation is deterministic, so eviction can never change a
	// result). Bounds per-plan memo memory in long-lived processes.
	memoShardCap = 256
)

// memo maps designs to one kind of memoized value.
type memo[V any] struct {
	shards [memoShards]struct {
		mu sync.Mutex
		m  map[designKey]V
	}
}

// shard returns the index of the shard that holds k.
func (k designKey) shard() uint64 {
	return mix(k.sub^math.Float64bits(k.clock)^uint64(k.cores)<<40^uint64(k.mem)<<56) % memoShards
}

// get returns k's value and whether k has one.
func (c *memo[V]) get(k designKey) (V, bool) {
	s := &c.shards[k.shard()]
	s.mu.Lock()
	v, ok := s.m[k]
	s.mu.Unlock()
	return v, ok
}

// keep stores v under k unless k already holds a value, and returns
// what k holds. A full shard is dropped before a new key goes in.
func (c *memo[V]) keep(k designKey, v V) V {
	s := &c.shards[k.shard()]
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.m[k]; ok {
		return old
	}
	if s.m == nil || len(s.m) >= memoShardCap {
		s.m = make(map[designKey]V, 8)
	}
	s.m[k] = v
	return v
}

// mix is a Fibonacci-style bit mixer for shard selection.
func mix(x uint64) uint64 {
	x *= 0x9E3779B97F4A7C15
	return x ^ x>>32
}

// fusionEntry is one design's fusion assignment per softmax variant
// (indexed like evaluate's algIdx) on a plan with an exact fusion solve.
type fusionEntry [2]struct {
	once sync.Once
	asn  fusion.Assignment
}

// assignment returns the fusion placement of cfg under softmax variant
// algIdx on its region costs: the memoized one, owned by the entry, when
// e is non-nil (its first caller pays the solve), otherwise a fresh
// solve into buf, whose slices serve design after design.
func (e *fusionEntry) assignment(p *Plan, cfg *arch.Config, algIdx int, costs []fusion.RegionCost, buf *fusion.Assignment) fusion.Assignment {
	if e == nil {
		fusion.SolvePlanned(buf, costs, p.usable, cfg.GlobalBytes(), p.opts.Fusion)
		return *buf
	}
	f := &e[algIdx]
	f.once.Do(func() { fusion.SolvePlanned(&f.asn, costs, p.usable, cfg.GlobalBytes(), p.opts.Fusion) })
	return f.asn
}

// fillHook is a seam only _test.go files set (via export_test.go): it
// sees each Score a ScoreBatch miss evaluates, before the memo stores it.
var fillHook func(cfg *arch.Config, s Score)

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
// into the Result: the schedule mappings, the fusion region-cost table,
// the traffic-floor extras and, on a plan that memoizes no fusion
// assignment, the assignment (ScoreBatch also reuses Results: resultBuf).
type evalScratch struct {
	mapped []mapping.Mapping
	costs  []fusion.RegionCost
	extras []int64
	asn    fusion.Assignment
}

var scratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

// mappings fills the scratch's mapping table: the best schedule mapping
// of each of p's unique matrix problems on cfg, in dense problem order.
func (s *evalScratch) mappings(p *Plan, cfg *arch.Config) []mapping.Mapping {
	if cap(s.mapped) < len(p.problems) {
		s.mapped = make([]mapping.Mapping, len(p.problems))
	}
	s.mapped = s.mapped[:len(p.problems)]
	for i := range p.problems {
		s.mapped[i] = mapping.Best(p.problems[i], cfg, p.opts.Mapping)
	}
	return s.mapped
}

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

// admit validates a batch, failing it whole on any invalid design (the
// search engine filters infeasible decodes before reaching the
// simulator), and counts its designs as evaluated.
func admit(cfgs []*arch.Config) error {
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("sim: batch design %d: %w", i, err)
		}
	}
	evalCount.Add(int64(len(cfgs)))
	return nil
}

// EvaluateBatch evaluates many candidate datapaths against one compiled
// plan. Results are bit-identical to calling Evaluate per design and
// positionally aligned with cfgs. Every config is validated up front;
// an invalid design fails the whole batch. Safe for concurrent use on
// one shared Plan.
func (p *Plan) EvaluateBatch(cfgs []*arch.Config) ([]*Result, error) {
	if err := admit(cfgs); err != nil {
		return nil, err
	}
	results := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		results[i] = p.evaluateValidated(cfg, nil)
	}
	return results, nil
}

// ScoreBatch is EvaluateBatch for the study evaluator, which reads only
// each design's Score: score receives each design's index in cfgs and
// its Score, in cfgs order. A design the plan has scored before costs
// one lookup; any other is evaluated into pooled Result memory reused
// design after design, and its Score memoized. Validation and arithmetic
// are EvaluateBatch's. Safe for concurrent use on one shared Plan.
func (p *Plan) ScoreBatch(cfgs []*arch.Config, score func(i int, s Score)) error {
	if err := admit(cfgs); err != nil {
		return err
	}
	bufs := scorePool.Get().(*scoreBufs)
	defer scorePool.Put(bufs)
	for i, cfg := range cfgs {
		k := keyOf(cfg)
		s, ok := p.scores.get(k)
		if !ok {
			r := p.evaluateValidated(cfg, bufs)
			s = Score{ScheduleFailed: r.ScheduleFailed, LatencySec: r.LatencySec, QPS: r.QPS, PerfPerTDP: r.PerfPerTDP}
			if fillHook != nil {
				fillHook(cfg, s)
			}
			p.scores.keep(k, s)
		}
		score(i, s)
	}
	return nil
}
