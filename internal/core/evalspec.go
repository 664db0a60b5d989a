package core

// The remote-evaluation seam.
//
// A Study's evaluation behaviour — which Evaluation every index vector
// maps to — is fully determined by a handful of resolved values:
// workloads, objective kinds, the latency bound, the base platform, the
// budget envelope, and the simulator options (power model included).
// EvalSpec captures exactly those values in a JSON-serializable form, so
// a separate process can rebuild the *same* batch evaluator with
// BuildBatchEvaluator and return bit-identical Evaluations: float64
// round-trips exactly through encoding/json's shortest-representation
// encoding, and the evaluator itself is deterministic per index vector.
// That is the whole correctness contract of internal/dispatch — the
// dispatcher ships (spec, index vectors) out, folds result vectors back
// positionally, and the runner's transcript cannot tell the difference.
//
// WithDispatch installs a dispatcher into one Run: after Run resolves
// its defaults into the spec and builds the in-process evaluator from
// it, the DispatchFunc may wrap that evaluator (keeping it as its
// fallback).
// Nothing else in the engine changes, so every determinism property of
// the runner (ask order, tell order, memoization) is inherited as-is.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"fast/internal/arch"
	"fast/internal/models"
	"fast/internal/power"
	"fast/internal/search"
	"fast/internal/sim"
)

// EvalSpec is the wire-serializable description of one study's
// evaluation semantics: everything a remote evaluator needs to map
// index vectors to Evaluations, and nothing about the optimizer (the
// ask/tell transcript never leaves the dispatching process).
type EvalSpec struct {
	// Workloads are the canonical model names (geomean-folded).
	Workloads []string `json:"workloads"`
	// Objective names the scalar target; empty when Objectives is set.
	Objective string `json:"objective,omitempty"`
	// Objectives names the multi-objective targets, in order.
	Objectives []string `json:"objectives,omitempty"`
	// LatencyBoundSec is the optional per-batch latency bound.
	LatencyBoundSec float64 `json:"latency_bound_sec,omitempty"`
	// Base is the resolved platform configuration.
	Base *arch.Config `json:"base"`
	// Budget is the resolved constraint envelope.
	Budget power.Budget `json:"budget"`
	// SimOptions are the resolved simulator options, power model
	// included (Run sets SimOptions.PowerModel before dispatching).
	SimOptions sim.Options `json:"sim_options"`
}

// evalSpec resolves the study's defaults into the EvalSpec every
// evaluation of one Run is built from: the default platform, the
// default power model and the budget it anchors.
func (s *Study) evalSpec() EvalSpec {
	pm := power.Default()
	sp := EvalSpec{
		Workloads:       s.Workloads,
		LatencyBoundSec: s.LatencyBoundSec,
		Base:            DefaultPlatform(),
		Budget:          power.DefaultBudget(pm),
		SimOptions:      sim.FASTOptions(),
	}
	if s.SimOptions != nil {
		sp.SimOptions = *s.SimOptions
	}
	sp.SimOptions.PowerModel = pm
	if len(s.Objectives) > 0 {
		for _, o := range s.Objectives {
			sp.Objectives = append(sp.Objectives, o.String())
		}
	} else {
		sp.Objective = s.Objective.String()
	}
	return sp
}

// Marshal renders the spec as canonical JSON (the wire and fingerprint
// form; encoding/json field order is fixed, so equal specs render equal
// bytes).
func (sp EvalSpec) Marshal() ([]byte, error) { return json.Marshal(sp) }

// FingerprintSpec names a marshaled spec by content: remote evaluators
// cache compiled evaluators under this key, and verify it against the
// bytes they received before trusting a frame.
func FingerprintSpec(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// BuildBatchEvaluator compiles a spec into the study's batch objective.
// It is the only constructor of study evaluators in the tree — Study.Run
// calls it in-process and fast-worker calls it on the far side of the
// dispatch wire — so local and remote evaluation are the same code, and
// the spec (where outside input arrives) is the one place study
// semantics are validated. The returned evaluator is safe for concurrent
// use and deterministic per index vector; compiled plans go through the
// process-wide plan cache.
func BuildBatchEvaluator(sp EvalSpec) (search.BatchObjective, error) {
	if len(sp.Workloads) == 0 {
		return nil, fmt.Errorf("core: study needs at least one workload")
	}
	for _, w := range sp.Workloads {
		if err := models.Validate(w); err != nil {
			return nil, err
		}
	}
	if sp.Base == nil {
		return nil, fmt.Errorf("core: eval spec needs a base platform")
	}
	// sp is a copy: resolving what a hand-written spec may omit (Run's
	// own specs arrive resolved) never reaches the caller.
	if sp.SimOptions.PowerModel == nil {
		sp.SimOptions.PowerModel = power.Default()
	}
	if sp.Budget.MaxTDPW == 0 {
		sp.Budget = power.DefaultBudget(sp.SimOptions.PowerModel)
	}
	// The options fingerprint is constant across the study; render it
	// once so the per-trial hot path only does a map lookup.
	ev := &evaluator{EvalSpec: sp, scalar: len(sp.Objectives) == 0, simFP: sp.SimOptions.Fingerprint()}
	names := sp.Objectives
	if ev.scalar {
		names = []string{sp.Objective}
	}
	seen := map[ObjectiveKind]bool{}
	for _, name := range names {
		o, err := ParseObjective(name)
		if err != nil {
			return nil, err
		}
		if seen[o] {
			// A repeated objective would double-weight itself in
			// dominance and collapse in keyed outputs.
			return nil, fmt.Errorf("core: duplicate objective %s", o)
		}
		seen[o] = true
		ev.objs = append(ev.objs, o)
	}
	if ev.scalar && !ev.objs[0].Maximize() {
		return nil, fmt.Errorf("core: scalar studies maximize perf or perf-per-tdp; use Objectives for %s", ev.objs[0])
	}
	return ev.evaluateBatch, nil
}

// evaluator is a compiled EvalSpec: the decode → budget → per-workload
// simulate → geomean pipeline (Eq. 3 value under the Eq. 4-5
// constraints) over whole ask-batches. A scalar study is the
// 1-objective case whose Evaluations leave Values nil, which is what
// keeps scalar transcripts and checkpoints byte-identical to the vector
// form's first column.
type evaluator struct {
	EvalSpec                 // resolved: power model and budget are set
	objs     []ObjectiveKind // parsed Objective / Objectives
	scalar   bool
	simFP    string
}

// candidate is the per-design fold state: the power breakdown from the
// budget check (feeding the cost objectives for free) plus one running
// log-sum per performance objective, in evaluator.objs order.
type candidate struct {
	pos    int // position in the batch
	cfg    *arch.Config
	bd     power.Breakdown
	logSum [numObjectiveKinds]float64
}

// fold scores one workload's Score into the per-objective running
// log-sums; false means the design failed Eq. 5 or the latency bound on
// this workload.
func (ev *evaluator) fold(r sim.Score, c *candidate) bool {
	if r.ScheduleFailed || r.QPS <= 0 {
		return false
	}
	if ev.LatencyBoundSec > 0 && r.LatencySec > ev.LatencyBoundSec {
		return false
	}
	for k, o := range ev.objs {
		var v float64
		switch o {
		case Perf:
			v = r.QPS
		case PerfPerTDP:
			v = r.PerfPerTDP
		default:
			continue // design-level objective, no per-workload term
		}
		if v <= 0 {
			return false
		}
		c.logSum[k] += math.Log(v)
	}
	return true
}

// finish assembles the Evaluation of a design that survived every
// workload. Values are maximize-oriented (minimization targets negated)
// per the search.Evaluation convention, and Value mirrors Values[0] so
// scalar drivers (Result.Best, the convergence curve) track the first
// objective.
func (ev *evaluator) finish(c *candidate) search.Evaluation {
	var vals [numObjectiveKinds]float64
	for k, o := range ev.objs {
		switch o {
		case TDP:
			vals[k] = -c.bd.TotalPower()
		case Area:
			vals[k] = -c.bd.TotalArea()
		default:
			vals[k] = math.Exp(c.logSum[k] / float64(len(ev.Workloads)))
		}
	}
	out := search.Evaluation{Value: vals[0], Feasible: true}
	if !ev.scalar {
		out.Values = slices.Clone(vals[:len(ev.objs)])
	}
	return out
}

// evaluateBatch is the study's search.BatchObjective. Designs that
// decode to a valid configuration inside the budget (Eq. 4) are grouped
// by NativeBatch (a searched hyperparameter that selects the compiled
// plan) and routed through Plan.ScoreBatch one workload at a time, so
// fold reads the four figures of each design's Score, memoized on the
// shared plan; fold works per candidate, so the order designs are
// scored in reaches no answer. A
// design is dropped from later workloads as soon as an earlier
// one proves it infeasible. Everything that does not survive keeps the
// zero (infeasible) Evaluation.
func (ev *evaluator) evaluateBatch(idxs [][arch.NumParams]int) []search.Evaluation {
	evals := make([]search.Evaluation, len(idxs))
	alive := make([]candidate, 0, len(idxs))
	for i, idx := range idxs {
		cfg := arch.Space{}.Decode(idx, ev.Base)
		if err := cfg.Validate(); err != nil {
			continue
		}
		bd := ev.SimOptions.PowerModel.Evaluate(cfg)
		if bd.TotalPower() > ev.Budget.MaxTDPW || bd.TotalArea() > ev.Budget.MaxAreaMM2 {
			continue
		}
		alive = append(alive, candidate{pos: i, cfg: cfg, bd: bd})
	}
	for _, w := range ev.Workloads {
		if len(alive) == 0 {
			break
		}
		groups := make(map[int64][]int)
		for ai := range alive {
			nb := alive[ai].cfg.NativeBatch
			groups[nb] = append(groups[nb], ai)
		}
		nbs := make([]int64, 0, len(groups))
		for nb := range groups {
			nbs = append(nbs, nb)
		}
		slices.Sort(nbs)
		dead := make(map[int]bool)
		for _, nb := range nbs {
			ais := groups[nb]
			cfgs := make([]*arch.Config, len(ais))
			for k, ai := range ais {
				cfgs[k] = alive[ai].cfg
			}
			plan, err := planFor(w, nb, ev.simFP, ev.SimOptions)
			if err == nil {
				err = plan.ScoreBatch(cfgs, func(k int, r sim.Score) {
					if !ev.fold(r, &alive[ais[k]]) {
						dead[ais[k]] = true
					}
				})
			}
			if err != nil {
				for _, ai := range ais {
					dead[ai] = true
				}
			}
		}
		next := alive[:0]
		for ai := range alive {
			if !dead[ai] {
				next = append(next, alive[ai])
			}
		}
		alive = next
	}
	for i := range alive {
		evals[alive[i].pos] = ev.finish(&alive[i])
	}
	return evals
}

// DispatchFunc lets a dispatcher interpose on a Run's batch evaluation:
// it receives the Run's context, the study's resolved EvalSpec, and the
// in-process batch objective (the semantic ground truth and the
// degradation fallback) and returns the batch objective the runner will
// call. Implementations must preserve the BatchObjective contract —
// exactly one Evaluation per index vector, positionally aligned, equal
// to what the local objective would have returned — with one carve-out:
// once ctx is done, the runner abandons the in-flight batch untold, so
// a dispatcher that observes cancellation may return placeholder
// evaluations (still one per point) instead of finishing remote work.
// ctx carries the Run's deadline, letting dispatchers clamp per-chunk
// timeouts so a canceled or deadlined study stops burning workers.
type DispatchFunc func(ctx context.Context, spec EvalSpec, local search.BatchObjective) search.BatchObjective

// WithDispatch routes one Run's batch evaluation through f (see
// internal/dispatch for the worker-pool implementation). Dispatch is
// pure mechanism: it changes where evaluations execute, never what they
// return, so transcripts stay bit-identical to in-process runs.
func WithDispatch(f DispatchFunc) Option {
	return func(c *runConfig) { c.dispatch = f }
}
