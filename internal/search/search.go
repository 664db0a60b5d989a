// Package search provides the black-box optimizers FAST drives its
// datapath exploration with — the Google Vizier substitute. Three
// heuristic families are implemented, matching the paper's Figure 11
// comparison: pure random sampling, Linear Combination Swarm (LCS, a
// bounded particle swarm over the ordinal hyperparameter space, after
// Golovin et al.), and a surrogate-model Bayesian optimizer (RBF
// regression with an upper-confidence-bound acquisition).
//
// All optimizers observe (value, feasible) pairs; infeasible trials
// (budget violations or schedule failures, Eq. 4-5) carry no value but
// still steer the search away — the "safe search" behaviour the paper
// enables in Vizier.
package search

import (
	"fmt"
	"math"
	"math/rand"

	"fast/internal/arch"
)

// Evaluation is the outcome of one trial. The JSON tags are the durable
// checkpoint format (internal/store serializes trials line by line);
// float64 values round-trip bit-exactly through encoding/json's
// shortest-representation encoding.
type Evaluation struct {
	// Value is the objective (higher is better); meaningful only when
	// Feasible.
	Value float64 `json:"value"`
	// Values is the objective vector of a multi-objective trial, every
	// component oriented so that higher is better (callers negate
	// minimization metrics such as TDP or area before storing them).
	// Nil for scalar studies; meaningful only when Feasible. Drivers
	// treat a nil Values on a feasible trial as the 1-vector {Value},
	// which makes every scalar objective a degenerate multi-objective
	// one.
	Values []float64 `json:"values,omitempty"`
	// Feasible reports whether the design met every constraint.
	Feasible bool `json:"feasible"`
}

// Equal reports whether two evaluations are bit-identical (Evaluation
// is not ==-comparable because of the Values slice).
func (e Evaluation) Equal(u Evaluation) bool {
	if e.Value != u.Value || e.Feasible != u.Feasible || len(e.Values) != len(u.Values) {
		return false
	}
	for i := range e.Values {
		if e.Values[i] != u.Values[i] {
			return false
		}
	}
	return true
}

// ObjectiveVector returns the trial's maximize-oriented objective
// vector: Values when present, otherwise the 1-vector {Value}. Nil for
// infeasible evaluations.
func (e Evaluation) ObjectiveVector() []float64 {
	if !e.Feasible {
		return nil
	}
	if e.Values != nil {
		return e.Values
	}
	return []float64{e.Value}
}

// BatchObjective evaluates a whole slice of hyperparameter vectors at
// once, returning exactly one Evaluation per vector, positionally
// aligned. It is the one shape objectives take, so an evaluator can
// amortize per-call work across a batch (core's evaluator groups a batch
// by compiled plan and reuses its result tables design after design).
// The Evaluation of a vector must not depend on what else is in the
// batch or on evaluation order.
type BatchObjective func(idxs [][arch.NumParams]int) []Evaluation

// Trial records one evaluated point.
type Trial struct {
	Index [arch.NumParams]int `json:"index"`
	Evaluation
}

// Equal reports whether two trials are bit-identical: same index
// vector, scalar value, objective vector, and feasibility. (Trial is
// not ==-comparable because of the Values slice.)
func (t Trial) Equal(u Trial) bool {
	return t.Index == u.Index && t.Evaluation.Equal(u.Evaluation)
}

// Result is a completed study.
type Result struct {
	// Best is the best feasible trial (Feasible=false if none was found).
	Best Trial
	// History holds every trial in evaluation order.
	History []Trial
}

// Observe folds a trial into the result: appends it to the history and
// promotes it to Best when it is the best feasible trial so far. Every
// driver of an Optimizer (the concurrent engine in internal/core, a
// resumed run's merge) accumulates through this one helper.
func (r *Result) Observe(t Trial) {
	r.History = append(r.History, t)
	if t.Feasible && (!r.Best.Feasible || t.Value > r.Best.Value) {
		r.Best = t
	}
}

// BestSoFar returns the running-best objective value after each trial
// (NaN until the first feasible trial) — the Figure 11 convergence curve.
func (r Result) BestSoFar() []float64 {
	out := make([]float64, len(r.History))
	best := math.NaN()
	for i, t := range r.History {
		if t.Feasible && (math.IsNaN(best) || t.Value > best) {
			best = t.Value
		}
		out[i] = best
	}
	return out
}

// FeasibleRate returns the fraction of feasible trials.
func (r Result) FeasibleRate() float64 {
	if len(r.History) == 0 {
		return 0
	}
	n := 0
	for _, t := range r.History {
		if t.Feasible {
			n++
		}
	}
	return float64(n) / float64(len(r.History))
}

// Algorithm names the optimizer families (Figure 11).
type Algorithm string

const (
	// AlgRandom is uniform random sampling.
	AlgRandom Algorithm = "random"
	// AlgLCS is Linear Combination Swarm.
	AlgLCS Algorithm = "lcs"
	// AlgBayes is the surrogate-model (Bayesian) optimizer, Vizier's
	// default family.
	AlgBayes Algorithm = "bayesian"
	// AlgNSGA2 is the elitist non-dominated-sorting genetic algorithm
	// for multi-objective (Pareto-front) studies. On scalar objectives
	// it degenerates to a plain elitist GA.
	AlgNSGA2 Algorithm = "nsga2"
)

// Optimizer is the batch ask/tell protocol every search family speaks.
// Ask proposes candidates from the current state; Tell folds evaluated
// trials back in. An optimizer's state evolves only through this
// transcript, so any driver that replays the same ask/tell sequence
// reproduces the same search.
//
// Contract: trials passed to Tell must arrive in the order their index
// vectors were returned by Ask (batches may be told whole or split, but
// never reordered); adaptive families rely on that pairing to attribute
// evaluations to the internal state that proposed them.
type Optimizer interface {
	// Ask returns up to n candidate hyperparameter index vectors (the
	// built-in families always return exactly n; a finite optimizer may
	// return fewer, and an empty result tells drivers the optimizer is
	// exhausted — they end the search early with the partial result).
	// Proposals within one batch are generated from the same state
	// snapshot, so adaptive families may propose duplicates; drivers
	// are free to memoize the objective across them.
	Ask(n int) [][arch.NumParams]int
	// Tell reports evaluated trials back to the optimizer, in ask order.
	// The slice stays the caller's (the core runner passes a window on
	// its history): an optimizer copies what it keeps and never
	// modifies it.
	Tell(trials []Trial)
}

// families is the one list of valid Algorithm names, with constructors.
var families = map[Algorithm]func(seed int64, budget int) Optimizer{
	AlgRandom: newRandom,
	AlgLCS:    newLCS,
	AlgBayes:  newBayesian,
	AlgNSGA2:  newNSGA2,
}

// Validate refuses a name that is not one of the optimizer families.
func (a Algorithm) Validate() error {
	if families[a] == nil {
		return fmt.Errorf("search: unknown algorithm %q (want random, lcs, bayesian or nsga2)", a)
	}
	return nil
}

// New constructs a fresh optimizer for the algorithm with a
// deterministic seed. budget is the expected total trial count, used by
// annealing schedules (Bayesian exploration decay) and for sizing (LCS
// swarm); budget <= 0 selects family defaults. It panics on a name
// Validate refuses.
func New(alg Algorithm, seed int64, budget int) Optimizer {
	if err := alg.Validate(); err != nil {
		panic(err)
	}
	return families[alg](seed, budget)
}

// randomOptimizer samples the space uniformly; Tell is a no-op
// (uniform sampling is memoryless).
type randomOptimizer struct {
	r    *rand.Rand
	dims [arch.NumParams]int
}

// newRandom returns the uniform-sampling optimizer (budget is unused).
func newRandom(seed int64, _ int) Optimizer {
	return &randomOptimizer{r: rand.New(rand.NewSource(seed)), dims: arch.Space{}.Dims()}
}

func (o *randomOptimizer) Ask(n int) [][arch.NumParams]int {
	out := make([][arch.NumParams]int, n)
	for i := range out {
		for d, card := range o.dims {
			out[i][d] = o.r.Intn(card)
		}
	}
	return out
}

func (o *randomOptimizer) Tell([]Trial) {}

// mutate returns a copy of idx with each coordinate re-sampled with
// probability p (at least one coordinate always changes).
func mutate(r *rand.Rand, idx [arch.NumParams]int, p float64) [arch.NumParams]int {
	dims := arch.Space{}.Dims()
	out := idx
	changed := false
	for d, card := range dims {
		if r.Float64() < p {
			out[d] = r.Intn(card)
			changed = true
		}
	}
	if !changed {
		d := r.Intn(arch.NumParams)
		// Force a genuinely different value.
		v := r.Intn(dims[d] - 1)
		if v >= out[d] {
			v++
		}
		out[d] = v
	}
	return out
}
