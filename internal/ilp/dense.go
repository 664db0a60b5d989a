package ilp

import (
	"math"
	"time"
)

// solveDense is the frozen PR-1 branch-and-bound over the dense
// two-phase tableau simplex (simplex.go): depth-first, tableau rebuilt
// from scratch at every node, upper bounds materialized as extra rows.
// It is retained verbatim as the reference oracle for the sparse
// revised-simplex solver — the differential and fuzz suites pin the new
// solver's objectives against it — and as the numerical fallback should
// the sparse path report an unrecoverable factorization failure. Do not
// "improve" it.
func solveDense(p Problem, o Options) (Result, error) {
	n := len(p.C)
	maxIter := o.MaxSimplexIters
	if maxIter == 0 {
		maxIter = 20000
	}

	// Materialize upper-bound rows (x ≤ u) once; branching appends
	// variable fixings as extra rows.
	baseA := make([][]float64, 0, len(p.A)+n)
	baseB := make([]float64, 0, len(p.B)+n)
	baseA = append(baseA, p.dense()...)
	baseB = append(baseB, p.B...)
	for i := 0; i < n; i++ {
		u := math.Inf(1)
		if p.U != nil {
			u = p.U[i]
		} else if p.Binary != nil && p.Binary[i] {
			u = 1
		}
		if !math.IsInf(u, 1) {
			row := make([]float64, n)
			row[i] = 1
			baseA = append(baseA, row)
			baseB = append(baseB, u)
		}
	}

	res := Result{Feasible: false, Objective: math.Inf(1)}
	if o.WarmStart != nil && integerFeasible(p, o.WarmStart) {
		res.Feasible = true
		res.Objective = dot(p.C, o.WarmStart)
		res.X = append([]float64(nil), o.WarmStart...)
	}

	expired := func() bool {
		//fast:allow nondetsource branch-and-bound deadline seam: time only truncates the search, never changes a returned incumbent's value
		return !o.Deadline.IsZero() && time.Now().After(o.Deadline)
	}

	// node fixes a subset of binary variables.
	type node struct {
		fixVar []int
		fixVal []float64
	}
	stack := []node{{}}
	provedOptimal := true

	for len(stack) > 0 {
		if expired() {
			provedOptimal = false
			break
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		res.Nodes++

		// Build this node's LP: base rows + fixings (x=v as two rows).
		a := baseA
		b := baseB
		if len(nd.fixVar) > 0 {
			a = append([][]float64(nil), baseA...)
			b = append([]float64(nil), baseB...)
			for k, v := range nd.fixVar {
				lo := make([]float64, n)
				hi := make([]float64, n)
				lo[v] = -1
				hi[v] = 1
				a = append(a, hi, lo)
				b = append(b, nd.fixVal[k], -nd.fixVal[k])
			}
		}
		lp := simplexDeadline(p.C, a, b, maxIter, o.Deadline)
		if !lp.feasible {
			continue
		}
		if lp.unbounded {
			// Unbounded relaxation with binaries still bounded: only
			// continuous directions can be unbounded, so the MILP is too.
			provedOptimal = false
			continue
		}
		if res.Feasible && lp.objective >= res.Objective-1e-9 {
			continue // bound: cannot beat incumbent
		}
		// Find the most fractional binary.
		branch := -1
		worst := 1e-6
		for i := 0; i < n; i++ {
			if p.Binary != nil && p.Binary[i] {
				f := math.Abs(lp.x[i] - math.Round(lp.x[i]))
				if f > worst {
					worst, branch = f, i
				}
			}
		}
		if branch < 0 {
			// Integer feasible (round off tiny fractional noise).
			x := append([]float64(nil), lp.x...)
			for i := range x {
				if p.Binary != nil && p.Binary[i] {
					x[i] = math.Round(x[i])
				}
			}
			obj := dot(p.C, x)
			if !res.Feasible || obj < res.Objective {
				res.Feasible = true
				res.Objective = obj
				res.X = x
				res.ImprovedAt = res.Nodes
			}
			continue
		}
		// Depth-first: explore the rounding nearer the LP value first
		// (pushed last).
		near := math.Round(lp.x[branch])
		far := 1 - near
		stack = append(stack,
			node{fixVar: append(append([]int(nil), nd.fixVar...), branch),
				fixVal: append(append([]float64(nil), nd.fixVal...), far)},
			node{fixVar: append(append([]int(nil), nd.fixVar...), branch),
				fixVal: append(append([]float64(nil), nd.fixVal...), near)},
		)
	}
	res.Optimal = res.Feasible && provedOptimal && len(stack) == 0
	if res.Optimal {
		res.BestBound = res.Objective
	} else {
		// The dense solver tracks no global bound; report the
		// uninformative one.
		res.BestBound = math.Inf(-1)
		if res.Feasible {
			res.Gap = math.Inf(1)
		}
	}
	return res, nil
}
