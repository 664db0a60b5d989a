package search

import (
	"math"
	"math/rand"

	"fast/internal/arch"
)

// bayesOptimizer is a surrogate-model optimizer in the spirit of
// Vizier's default: a radial-basis-function regressor over normalized
// coordinates predicts the objective, a distance-based uncertainty term
// provides exploration, and each proposal maximizes the
// upper-confidence-bound acquisition over a sampled pool (random points
// plus mutations of the incumbents). Infeasible observations are kept
// with a pessimistic value so the surrogate learns the feasible region
// ("safe search").
//
// Ask proposes from the surrogate fitted to every trial told so far;
// proposals within one batch share that posterior and differ through
// the acquisition pool's random draws. Tell refits incrementally.
type bayesOptimizer struct {
	r    *rand.Rand
	dims [arch.NumParams]int
	// budget is the expected total trial count, used by the warm-up and
	// exploration-annealing schedules.
	budget int
	warm   int

	data  []bayesSample
	worst float64 // running min feasible value, used to score infeasibles
	// res accumulates told trials through Result.Observe — the same
	// best-promotion rule every driver uses.
	res   Result
	asked int
}

type bayesSample struct {
	x [arch.NumParams]float64
	y float64
}

const bayesBandwidth = 0.35 // RBF kernel width in normalized space

// bayesDefaultBudget stands in for the annealing horizon when the
// caller gives no budget hint.
const bayesDefaultBudget = 300

// newBayesian returns the surrogate-model optimizer. budget sizes the
// warm-up phase (max(8, budget/10) random trials) and the exploration
// decay; budget <= 0 uses a default horizon.
func newBayesian(seed int64, budget int) Optimizer {
	if budget <= 0 {
		budget = bayesDefaultBudget
	}
	warm := budget / 10
	if warm < 8 {
		warm = 8
	}
	return &bayesOptimizer{
		r:      rand.New(rand.NewSource(seed)),
		dims:   arch.Space{}.Dims(),
		budget: budget,
		warm:   warm,
	}
}

func (o *bayesOptimizer) normalize(idx [arch.NumParams]int) [arch.NumParams]float64 {
	var x [arch.NumParams]float64
	for d, card := range o.dims {
		if card > 1 {
			x[d] = float64(idx[d]) / float64(card-1)
		}
	}
	return x
}

func (o *bayesOptimizer) predict(x [arch.NumParams]float64) (mean, sigma float64) {
	if len(o.data) == 0 {
		return 0, 1
	}
	var wsum, vsum, nearest float64
	nearest = math.Inf(1)
	for _, s := range o.data {
		var d2 float64
		for d := range x {
			diff := x[d] - s.x[d]
			d2 += diff * diff
		}
		w := math.Exp(-d2 / (2 * bayesBandwidth * bayesBandwidth))
		wsum += w
		vsum += w * s.y
		if d2 < nearest {
			nearest = d2
		}
	}
	if wsum < 1e-12 {
		return 0, 1
	}
	// Uncertainty grows with distance to the nearest observation.
	return vsum / wsum, 1 - math.Exp(-nearest/(bayesBandwidth*bayesBandwidth))
}

func (o *bayesOptimizer) randomIdx() [arch.NumParams]int {
	var idx [arch.NumParams]int
	for d, card := range o.dims {
		idx[d] = o.r.Intn(card)
	}
	return idx
}

func (o *bayesOptimizer) Ask(n int) [][arch.NumParams]int {
	out := make([][arch.NumParams]int, 0, n)
	for i := 0; i < n; i++ {
		t := o.asked
		o.asked++
		if t < o.warm || !o.res.Best.Feasible {
			out = append(out, o.randomIdx())
			continue
		}
		// UCB acquisition over a candidate pool.
		frac := float64(t) / float64(o.budget)
		if frac > 1 {
			frac = 1
		}
		kappa := 1.5 * (1 - frac) // anneal exploration
		pool := 64
		bestAcq := math.Inf(-1)
		var bestIdx [arch.NumParams]int
		for c := 0; c < pool; c++ {
			var cand [arch.NumParams]int
			switch {
			case c < pool/3:
				cand = o.randomIdx()
			case c < 2*pool/3:
				cand = mutate(o.r, o.res.Best.Index, 0.25)
			default:
				// Mutate a random prior feasible incumbent.
				base := o.res.Best.Index
				if k := feasibleIn(o.res.History, o.r); k >= 0 {
					base = o.res.History[k].Index
				}
				cand = mutate(o.r, base, 0.4)
			}
			mean, sigma := o.predict(o.normalize(cand))
			spread := math.Abs(o.res.Best.Value)
			if spread == 0 {
				spread = 1
			}
			acq := mean + kappa*sigma*spread
			if acq > bestAcq {
				bestAcq = acq
				bestIdx = cand
			}
		}
		out = append(out, bestIdx)
	}
	return out
}

func (o *bayesOptimizer) Tell(trials []Trial) {
	for _, tr := range trials {
		o.res.Observe(tr)
		y := tr.Value
		if !tr.Feasible {
			// Pessimistic stand-in below the worst feasible value.
			y = o.worst - 1
		} else if y < o.worst || len(o.data) == 0 {
			o.worst = y
		}
		o.data = append(o.data, bayesSample{x: o.normalize(tr.Index), y: y})
	}
}

// feasibleIn returns the index of a uniformly random feasible trial in
// the history (-1 if none).
func feasibleIn(hist []Trial, r *rand.Rand) int {
	count := 0
	pick := -1
	for i, t := range hist {
		if t.Feasible {
			count++
			if r.Intn(count) == 0 {
				pick = i
			}
		}
	}
	return pick
}
