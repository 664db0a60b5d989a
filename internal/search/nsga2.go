package search

import (
	"math/rand"
	"sort"

	"fast/internal/arch"
)

// nsga2Optimizer is an elitist non-dominated-sorting genetic algorithm
// (NSGA-II, Deb et al.) speaking the batch ask/tell protocol, so it
// inherits the study runner's worker pool, memoization and batch
// evaluator for free.
//
// Ask serves proposals from a queue that refills one population at a
// time: the first refill is uniform random; later refills breed
// offspring from the current parent population by binary tournament
// (rank, then crowding distance), uniform crossover, and a single-site
// mutation. Tell accumulates evaluated trials and, every popSize
// trials, runs the environmental selection — non-dominated sort of
// parents ∪ children with crowding-distance truncation of the last
// front — to form the next parents. Constraint handling is
// "dominated last": feasible individuals always outrank infeasible
// ones, and infeasible ones form a single final front ordered by their
// tell sequence.
//
// All state evolves only through the ask/tell transcript and the
// seeded generator, so replaying a transcript (what the study runner
// does at any parallelism) reproduces the search exactly.
type nsga2Optimizer struct {
	r    *rand.Rand
	dims [arch.NumParams]int
	pop  int

	// parents is the current population, annotated with the rank and
	// crowding distance computed by the selection that produced it.
	parents []nsga2Individual
	// queue holds generated-but-not-yet-asked proposals.
	queue [][arch.NumParams]int
	// told buffers evaluated trials until a full generation arrives.
	told []nsga2Individual
}

type nsga2Individual struct {
	idx   [arch.NumParams]int
	vals  []float64 // maximize-oriented; nil when infeasible
	rank  int
	crowd float64
}

// nsga2PopSize is the default population; it matches the study runner's
// default batch width, so the runner advances exactly one generation
// per ask/tell round.
const nsga2PopSize = 16

// newNSGA2 returns the multi-objective NSGA-II optimizer. budget caps
// the population size (a population larger than the trial budget never
// completes one generation); budget <= 0 uses the default.
func newNSGA2(seed int64, budget int) Optimizer {
	o := &nsga2Optimizer{
		r:    rand.New(rand.NewSource(seed)),
		dims: arch.Space{}.Dims(),
		pop:  nsga2PopSize,
	}
	if budget > 0 && budget < o.pop {
		o.pop = budget
	}
	if o.pop < 2 {
		o.pop = 2 // tournament and crossover need two slots
	}
	return o
}

func (o *nsga2Optimizer) Ask(n int) [][arch.NumParams]int {
	out := make([][arch.NumParams]int, 0, n)
	for len(out) < n {
		if len(o.queue) == 0 {
			o.refill()
		}
		out = append(out, o.queue[0])
		o.queue = o.queue[1:]
	}
	return out
}

func (o *nsga2Optimizer) Tell(trials []Trial) {
	for _, tr := range trials {
		o.told = append(o.told, nsga2Individual{
			idx:  tr.Index,
			vals: tr.ObjectiveVector(),
		})
	}
	for len(o.told) >= o.pop {
		gen := o.told[:o.pop:o.pop]
		o.told = o.told[o.pop:]
		o.parents = o.selectNext(append(o.parents, gen...))
	}
}

// refill queues one population worth of proposals: uniform random
// before the first selection, bred offspring after.
func (o *nsga2Optimizer) refill() {
	for i := 0; i < o.pop; i++ {
		if len(o.parents) == 0 {
			var idx [arch.NumParams]int
			for d, card := range o.dims {
				idx[d] = o.r.Intn(card)
			}
			o.queue = append(o.queue, idx)
			continue
		}
		a := o.tournament()
		b := o.tournament()
		child := a.idx
		for d := range child {
			if o.r.Float64() < 0.5 {
				child[d] = b.idx[d]
			}
		}
		o.queue = append(o.queue, mutate(o.r, child, 1.0/arch.NumParams))
	}
}

// tournament draws two parents and returns the one with the lower rank,
// breaking ties by larger crowding distance, then by draw order.
func (o *nsga2Optimizer) tournament() nsga2Individual {
	a := o.parents[o.r.Intn(len(o.parents))]
	b := o.parents[o.r.Intn(len(o.parents))]
	if b.rank < a.rank || (b.rank == a.rank && b.crowd > a.crowd) {
		return b
	}
	return a
}

// selectNext is the environmental selection: fast non-dominated sort of
// the combined population, then fill the next generation front by
// front, truncating the last front by descending crowding distance
// (ties keep the earlier individual, i.e. parents before children and
// tell order within a generation — both transcript-deterministic).
func (o *nsga2Optimizer) selectNext(combined []nsga2Individual) []nsga2Individual {
	fronts := nondominatedFronts(combined)
	next := make([]nsga2Individual, 0, o.pop)
	for rank, front := range fronts {
		vals := make([][]float64, len(front))
		for i, ci := range front {
			vals[i] = combined[ci].vals
		}
		crowd := crowdingDistances(vals)
		members := make([]nsga2Individual, len(front))
		for i, ci := range front {
			members[i] = combined[ci]
			members[i].rank = rank
			members[i].crowd = crowd[i]
		}
		if room := o.pop - len(next); len(members) > room {
			sort.SliceStable(members, func(a, b int) bool {
				return members[a].crowd > members[b].crowd
			})
			next = append(next, members[:room]...)
			break
		}
		next = append(next, members...)
		if len(next) == o.pop {
			break
		}
	}
	return next
}

// nondominatedFronts partitions individuals into Pareto fronts (indices
// into the input). Infeasible individuals (nil vals) form a single last
// front in input order — "dominated last".
func nondominatedFronts(pop []nsga2Individual) [][]int {
	var feas, infeas []int
	for i, ind := range pop {
		if ind.vals != nil {
			feas = append(feas, i)
		} else {
			infeas = append(infeas, i)
		}
	}
	var fronts [][]int
	remaining := feas
	for len(remaining) > 0 {
		var front, rest []int
		for _, i := range remaining {
			dominated := false
			for _, j := range remaining {
				if i != j && Dominates(pop[j].vals, pop[i].vals) {
					dominated = true
					break
				}
			}
			if dominated {
				rest = append(rest, i)
			} else {
				front = append(front, i)
			}
		}
		fronts = append(fronts, front)
		remaining = rest
	}
	if len(infeas) > 0 {
		fronts = append(fronts, infeas)
	}
	return fronts
}
