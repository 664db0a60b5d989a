package ilp

// Test-only oracles and helpers: exhaustive enumeration, the full-scan branching rule, a greedy
// knapsack, and dense-to-sparse row conversion for hand-written
// problems.

import (
	"math"
	"sort"
)

// DenseRows converts dense constraint rows to the sparse form Problem
// carries, dropping zero coefficients.
func DenseRows(a [][]float64) []Row {
	rows := make([]Row, len(a))
	for i, r := range a {
		for j, v := range r {
			if v != 0 {
				rows[i].Idx = append(rows[i].Idx, int32(j))
				rows[i].Val = append(rows[i].Val, v)
			}
		}
	}
	return rows
}

// BruteForce enumerates all binary assignments (continuous vars solved by
// LP for each) — for testing only; exponential.
func BruteForce(p Problem) Result {
	n := len(p.C)
	var binIdx []int
	for i := 0; i < n; i++ {
		if p.Binary != nil && p.Binary[i] {
			binIdx = append(binIdx, i)
		}
	}
	best := Result{Objective: math.Inf(1)}
	dense := p.dense()
	total := 1 << len(binIdx)
	for mask := 0; mask < total; mask++ {
		// Fix binaries, solve the continuous remainder by LP.
		a := append([][]float64(nil), dense...)
		b := append([]float64(nil), p.B...)
		for k, v := range binIdx {
			val := float64((mask >> k) & 1)
			hi := make([]float64, n)
			lo := make([]float64, n)
			hi[v], lo[v] = 1, -1
			a = append(a, hi, lo)
			b = append(b, val, -val)
		}
		lp := simplex(p.C, a, b, maxSimplexIters)
		if lp.feasible && !lp.unbounded && lp.objective < best.Objective {
			best = Result{X: lp.x, Objective: lp.objective, Feasible: true, Optimal: true}
		}
	}
	return best
}

// GreedyKnapsack solves max Σ v_i x_i s.t. Σ w_i x_i ≤ cap, x binary, by
// value-density with a final sweep; a helper used for warm starts.
// Returns the chosen index set.
func GreedyKnapsack(values, weights []float64, capacity float64) []int {
	type item struct {
		i       int
		density float64
	}
	items := make([]item, 0, len(values))
	for i := range values {
		if values[i] <= 0 {
			continue
		}
		w := weights[i]
		d := math.Inf(1)
		if w > 0 {
			d = values[i] / w
		}
		items = append(items, item{i, d})
	}
	sort.Slice(items, func(a, b int) bool { return items[a].density > items[b].density })
	var chosen []int
	var used float64
	for _, it := range items {
		if used+weights[it.i] <= capacity {
			used += weights[it.i]
			chosen = append(chosen, it.i)
		}
	}
	sort.Ints(chosen)
	return chosen
}

// selectBranchFull is lpState.selectBranch as a scan of every column:
// the oracle for the scan over basic binaries only.
func selectBranchFull(x []float64, binary []bool, pcDn, pcUp []float64, cntDn, cntUp []int32) int {
	const fracEps = 1e-6
	branch := -1
	worst := fracEps
	reliable := true
	for i := range x {
		if binary == nil || !binary[i] {
			continue
		}
		f := math.Abs(x[i] - math.Round(x[i]))
		if f <= fracEps {
			continue
		}
		if cntDn[i] == 0 || cntUp[i] == 0 {
			reliable = false
		}
		if f > worst {
			worst, branch = f, i
		}
	}
	if branch < 0 || !reliable {
		return branch
	}
	best := -1.0
	for i := range x {
		if binary == nil || !binary[i] {
			continue
		}
		fd := x[i] - math.Floor(x[i])
		if fd <= fracEps || fd >= 1-fracEps {
			continue
		}
		score := math.Max(fd*pcDn[i], 1e-12) * math.Max((1-fd)*pcUp[i], 1e-12)
		if score > best {
			best, branch = score, i
		}
	}
	return branch
}
