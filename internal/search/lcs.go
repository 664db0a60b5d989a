package search

import (
	"math"
	"math/rand"

	"fast/internal/arch"
)

// lcsOptimizer is the Linear Combination Swarm optimizer: a bounded
// particle swarm over the continuous relaxation of the ordinal space.
// Each particle's next position is a linear combination of its velocity,
// its personal best, and the global best (the "linear combination" of
// the name); positions are rounded to the ordinal grid for evaluation.
// Infeasible evaluations never update bests, which keeps the swarm
// inside the safe region.
//
// Ask proposes the rounded positions of the next particles in
// round-robin order; Tell attributes each evaluation to the position
// snapshot that proposed it, then applies the velocity/position update —
// so a size-one ask/tell loop reproduces the classic asynchronous swarm,
// while batch asks give a synchronous generation.
type lcsOptimizer struct {
	r    *rand.Rand
	dims [arch.NumParams]int

	swarm      []lcsParticle
	askCursor  int
	gBest      [arch.NumParams]float64
	gBestValue float64
	hasGlobal  bool
	// pending pairs each Ask proposal with the particle and position
	// snapshot that generated it, in ask order; pending[told:] are the
	// ones not yet told. Once every proposal is told the buffer is
	// reused from its start, so lockstep ask/tell never reallocates it.
	pending []lcsPending
	told    int
}

type lcsParticle struct {
	pos, vel  [arch.NumParams]float64
	best      [arch.NumParams]float64
	bestValue float64
	hasBest   bool
}

type lcsPending struct {
	particle int
	pos      [arch.NumParams]float64
}

const (
	lcsInertia   = 0.65
	lcsPersonal  = 1.2
	lcsGlobal    = 1.6
	lcsSwarmSize = 16
)

// newLCS returns a Linear Combination Swarm optimizer. budget caps the
// swarm size (a swarm larger than the trial budget never completes one
// generation); budget <= 0 uses the default swarm.
func newLCS(seed int64, budget int) Optimizer {
	o := &lcsOptimizer{
		r:          rand.New(rand.NewSource(seed)),
		dims:       arch.Space{}.Dims(),
		gBestValue: math.Inf(-1),
	}
	particles := lcsSwarmSize
	if budget > 0 && budget < particles {
		particles = budget
	}
	if particles < 1 {
		particles = 1
	}
	o.swarm = make([]lcsParticle, particles)
	for i := range o.swarm {
		for d, card := range o.dims {
			o.swarm[i].pos[d] = o.r.Float64() * float64(card-1)
			o.swarm[i].vel[d] = (o.r.Float64() - 0.5) * float64(card) / 2
		}
		o.swarm[i].bestValue = math.Inf(-1)
	}
	return o
}

func (o *lcsOptimizer) round(pos [arch.NumParams]float64) [arch.NumParams]int {
	var idx [arch.NumParams]int
	for d, card := range o.dims {
		v := int(math.Round(pos[d]))
		if v < 0 {
			v = 0
		}
		if v >= card {
			v = card - 1
		}
		idx[d] = v
	}
	return idx
}

func (o *lcsOptimizer) Ask(n int) [][arch.NumParams]int {
	out := make([][arch.NumParams]int, 0, n)
	for i := 0; i < n; i++ {
		p := o.askCursor % len(o.swarm)
		o.askCursor++
		o.pending = append(o.pending, lcsPending{particle: p, pos: o.swarm[p].pos})
		out = append(out, o.round(o.swarm[p].pos))
	}
	return out
}

func (o *lcsOptimizer) Tell(trials []Trial) {
	for _, tr := range trials {
		var pd lcsPending
		if o.told < len(o.pending) {
			pd = o.pending[o.told]
			o.told++
		} else {
			// Foreign trial (e.g. a replayed transcript): attribute it to
			// the next particle at the trial's own grid position.
			pd.particle = o.askCursor % len(o.swarm)
			o.askCursor++
			for d := range tr.Index {
				pd.pos[d] = float64(tr.Index[d])
			}
		}
		p := &o.swarm[pd.particle]

		if tr.Feasible && tr.Value > p.bestValue {
			p.bestValue = tr.Value
			p.best = pd.pos
			p.hasBest = true
		}
		if tr.Feasible && tr.Value > o.gBestValue {
			o.gBestValue = tr.Value
			o.gBest = pd.pos
			o.hasGlobal = true
		}

		// Velocity/position update (applied per told trial so the swarm
		// state is deterministic in transcript order).
		for d, card := range o.dims {
			v := lcsInertia * p.vel[d]
			if p.hasBest {
				v += lcsPersonal * o.r.Float64() * (p.best[d] - p.pos[d])
			}
			if o.hasGlobal {
				v += lcsGlobal * o.r.Float64() * (o.gBest[d] - p.pos[d])
			}
			if !p.hasBest && !o.hasGlobal {
				// No feasible anchor yet: random restart drift.
				v = (o.r.Float64() - 0.5) * float64(card)
			}
			// Velocity clamp keeps particles inside a couple of grid
			// steps per iteration.
			limit := float64(card) / 2
			if v > limit {
				v = limit
			}
			if v < -limit {
				v = -limit
			}
			p.vel[d] = v
			p.pos[d] += v
			if p.pos[d] < 0 {
				p.pos[d] = 0
				p.vel[d] = math.Abs(p.vel[d]) / 2
			}
			if p.pos[d] > float64(card-1) {
				p.pos[d] = float64(card - 1)
				p.vel[d] = -math.Abs(p.vel[d]) / 2
			}
		}
		// Occasional mutation kick to escape local optima.
		if o.r.Float64() < 0.05 {
			d := o.r.Intn(arch.NumParams)
			p.pos[d] = o.r.Float64() * float64(o.dims[d]-1)
		}
	}
	if o.told == len(o.pending) {
		o.pending, o.told = o.pending[:0], 0
	}
}
