package sim

// Per-plan memo, two levels deep.
//
// A study scores designs through Plan.ScoreBatch and reads four figures
// off each (Score). Each plan memoizes them per design, keyed on the
// whole design: its SubKey (all 16 searched parameters, dead L2
// multipliers canonicalized) plus the fixed platform attributes. Within
// one study the runner's canonical memo sends no design to a plan twice;
// a study re-run or resumed on a shared plan (fast-serve) pays one lookup
// per repeated design.
//
// Behind it sits a timing memo. A design the design memo misses is
// mapped (mappings into pooled scratch); a design with an unschedulable
// problem is scored failed at once. Otherwise its timing key, a digest
// of everything evaluate reads from a design (timing plus each unique
// problem's mapped cycles), names its latency: designs that differ only
// in what the mapper's choice does not see (most often L1 sizes or the
// L1 configuration) share one, and a repeat costs the power model only.
// Everything else is recomputed per evaluation (traffic floor, KV
// eligibility, region costs, fusion, roll-up) except on a plan whose
// fusion is an exact solve: there each timing key's assignment per
// softmax variant is filled once (sync.Once), sparing a final report, a
// re-report or a design with the same timing a second branch-and-bound.
//
// The design key covers every arch.Config field but Name
// (TestMemoKeyCoversConfig), and the timing key every value evaluate's
// latency reads (TestTimingKeyCoversEvaluate), so a hit on either is
// bit-identical to recomputation. The timing key is a 128-bit digest,
// not the values themselves, which take 8 B per unique matrix problem.
// Taken as a random function of its input, two of the at most 4,096
// keys a plan holds at once collide with probability below
// 4096²/2¹²⁹ ≈ 2.5·10⁻³². A shard lock covers only its map access,
// never an evaluation: racing misses on one key each evaluate it to the
// same value; one stores it.

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"fast/internal/arch"
	"fast/internal/fusion"
	"fast/internal/mapping"
	"fast/internal/vpu"
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

// timing is everything evaluate reads from a design apart from its
// schedule mappings and the figures of the roll-up that follow from
// the latency (throughput, power, utilization).
type timing struct {
	// perCoreBW is one core's DRAM bandwidth in bytes/s, clock the core
	// clock in Hz and vpuPeak one core's VPU rate (vpu.Peak).
	perCoreBW, clock, vpuPeak float64
	// capBytes is the traffic floor's blocking capacity
	// (capacityBytes), gm the Global Memory bytes.
	capBytes, gm int64
}

func timingOf(cfg *arch.Config) timing {
	return timing{
		perCoreBW: cfg.PeakBandwidthGBs() * 1e9 / float64(cfg.Cores),
		clock:     cfg.ClockGHz * 1e9,
		vpuPeak:   vpu.Peak(cfg),
		capBytes:  capacityBytes(cfg),
		gm:        cfg.GlobalBytes(),
	}
}

// timingKey is a 128-bit digest of a timing and a design's mapped
// cycles per unique problem (see the file comment for its collision
// bound).
type timingKey struct{ a, b uint64 }

// key digests t and the cycle count of each mapping, in problem order,
// as exact bit patterns. ok is false when a problem failed to map: such
// a design is scored failed and has no timing.
func (t *timing) key(mapped []mapping.Mapping) (timingKey, bool) {
	d := timingKey{0x243f6a8885a308d3, 0x13198a2e03707344}
	d.add(math.Float64bits(t.perCoreBW))
	d.add(math.Float64bits(t.clock))
	d.add(math.Float64bits(t.vpuPeak))
	d.add(uint64(t.capBytes))
	d.add(uint64(t.gm))
	for i := range mapped {
		if mapped[i].Failed {
			return timingKey{}, false
		}
		d.add(math.Float64bits(mapped[i].Cycles))
	}
	return d, true
}

// add folds one word into both lanes of the digest: each lane
// multiplies (lane ⊕ word) by its own odd constant to 128 bits and
// keeps the xor of the product's halves (wyhash's mixing step).
func (k *timingKey) add(x uint64) {
	hi, lo := bits.Mul64(k.a^x, 0xa0761d6478bd642f)
	k.a = hi ^ lo
	hi, lo = bits.Mul64(k.b^x, 0xe7037ed1a0b428db)
	k.b = hi ^ lo
}

// shard returns the index of the shard that holds k.
func (k timingKey) shard() uint64 { return mix(k.a^k.b) % memoShards }

const (
	// memoShards spreads entries over independently locked shards so
	// concurrent evaluations rarely contend.
	memoShards = 16
	// memoShardCap bounds each shard; a full shard is dropped wholesale
	// (recomputation is deterministic, so eviction can never change a
	// result). Bounds per-plan memo memory in long-lived processes.
	memoShardCap = 256
)

// memoKey is a memo's key: a design or a timing.
type memoKey interface {
	comparable
	shard() uint64
}

// memo maps keys of one kind to one kind of memoized value.
type memo[K memoKey, V any] struct {
	shards [memoShards]struct {
		mu sync.Mutex
		m  map[K]V
	}
}

// shard returns the index of the shard that holds k.
func (k designKey) shard() uint64 {
	return mix(k.sub^math.Float64bits(k.clock)^uint64(k.cores)<<40^uint64(k.mem)<<56) % memoShards
}

// get returns k's value and whether k has one.
func (c *memo[K, V]) get(k K) (V, bool) {
	s := &c.shards[k.shard()]
	s.mu.Lock()
	v, ok := s.m[k]
	s.mu.Unlock()
	return v, ok
}

// keep stores v under k unless k already holds a value, and returns
// what k holds. A full shard is dropped before a new key goes in.
func (c *memo[K, V]) keep(k K, v V) V {
	s := &c.shards[k.shard()]
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.m[k]; ok {
		return old
	}
	if s.m == nil || len(s.m) >= memoShardCap {
		s.m = make(map[K]V, 8)
	}
	s.m[k] = v
	return v
}

// mix is a Fibonacci-style bit mixer for shard selection.
func mix(x uint64) uint64 {
	x *= 0x9E3779B97F4A7C15
	return x ^ x>>32
}

// fusionEntry is one timing key's fusion assignment per softmax variant
// (indexed like evaluate's algIdx) on a plan with an exact fusion solve.
type fusionEntry [2]struct {
	once sync.Once
	asn  fusion.Assignment
}

// fusionEntry returns the fusion memo's entry for timing key k on a
// plan whose fusion is an exact solve, and nil on any other plan.
func (p *Plan) fusionEntry(k timingKey) *fusionEntry {
	if !p.exactFusion() {
		return nil
	}
	e, _ := p.fusions.get(k)
	if e == nil {
		e = p.fusions.keep(k, new(fusionEntry))
	}
	return e
}

// assignment returns the fusion placement under softmax variant algIdx
// on region costs with gm bytes of Global Memory: the memoized one,
// owned by the entry, when e is non-nil (its first caller pays the
// solve), otherwise a fresh solve into buf, whose slices serve design
// after design.
func (e *fusionEntry) assignment(p *Plan, gm int64, algIdx int, costs []fusion.RegionCost, buf *fusion.Assignment) fusion.Assignment {
	if e == nil {
		fusion.SolvePlanned(buf, costs, p.usable, gm, p.opts.Fusion)
		return *buf
	}
	f := &e[algIdx]
	f.once.Do(func() { fusion.SolvePlanned(&f.asn, costs, p.usable, gm, p.opts.Fusion) })
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
// one lookup; any other is scored by p.score and its Score memoized.
// Validation and arithmetic are EvaluateBatch's. Safe for concurrent
// use on one shared Plan.
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
			s = p.score(cfg, bufs)
			if fillHook != nil {
				fillHook(cfg, s)
			}
			p.scores.keep(k, s)
		}
		score(i, s)
	}
	return nil
}

// score scores a design the design memo does not hold. It maps the
// design; one unschedulable problem fails it. A design whose timing key
// the plan has timed before takes that latency and pays only for its
// own throughput and power (Plan.rates); any other is evaluated into
// bufs' pooled Result memory, and its latency memoized.
func (p *Plan) score(cfg *arch.Config, bufs *scoreBufs) Score {
	scratch := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(scratch)
	t := timingOf(cfg)
	mapped := scratch.mappings(p, cfg)
	k, ok := t.key(mapped)
	if !ok {
		return Score{ScheduleFailed: true}
	}
	if latency, hit := p.latencies.get(k); hit {
		qps, _, _, perfPerTDP := p.rates(cfg, latency)
		return Score{LatencySec: latency, QPS: qps, PerfPerTDP: perfPerTDP}
	}
	r := p.evaluateMapped(cfg, &t, mapped, p.fusionEntry(k), bufs)
	p.latencies.keep(k, r.LatencySec)
	return Score{ScheduleFailed: r.ScheduleFailed, LatencySec: r.LatencySec, QPS: r.QPS, PerfPerTDP: r.PerfPerTDP}
}
