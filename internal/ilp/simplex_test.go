package ilp

// The frozen dense two-phase tableau simplex under solveDense
// (dense_test.go), kept as the reference oracle.

import "math"

// eps is the dense tableau's pivot and pricing tolerance.
const eps = 1e-9

// lpResult is the outcome of one LP solve.
type lpResult struct {
	x          []float64
	objective  float64
	feasible   bool
	unbounded  bool
	iterations int
}

// simplex minimizes c·x subject to A·x ≤ b, 0 ≤ x (upper bounds are
// expressed as extra rows by the caller). Two-phase tableau method with
// Bland's rule for anti-cycling.
func simplex(c []float64, a [][]float64, b []float64, maxIter int) lpResult {
	m, n := len(a), len(c)
	// Tableau columns: n structural + m slacks + up to m artificials + rhs.
	// Normalize rows so b >= 0.
	rows := make([][]float64, m)
	rhs := make([]float64, m)
	needArt := make([]bool, m)
	nArt := 0
	for i := 0; i < m; i++ {
		rows[i] = make([]float64, n+m)
		copy(rows[i], a[i])
		rows[i] = rows[i][:n+m]
		rhs[i] = b[i]
		rows[i][n+i] = 1 // slack
		if rhs[i] < 0 {
			for j := range rows[i] {
				rows[i][j] = -rows[i][j]
			}
			rhs[i] = -rhs[i]
			needArt[i] = true
			nArt++
		}
	}
	total := n + m + nArt
	// Extend rows with artificial columns.
	artCol := n + m
	basis := make([]int, m)
	for i := 0; i < m; i++ {
		ext := make([]float64, total)
		copy(ext, rows[i])
		if needArt[i] {
			ext[artCol] = 1
			basis[i] = artCol
			artCol++
		} else {
			basis[i] = n + i
		}
		rows[i] = ext
	}

	iter := 0
	pivot := func(obj []float64, objVal *float64, pr, pc int) {
		pv := rows[pr][pc]
		inv := 1 / pv
		for j := range rows[pr] {
			rows[pr][j] *= inv
		}
		rhs[pr] *= inv
		for i := 0; i < m; i++ {
			if i == pr {
				continue
			}
			f := rows[i][pc]
			if f == 0 {
				continue
			}
			for j := range rows[i] {
				rows[i][j] -= f * rows[pr][j]
			}
			rhs[i] -= f * rhs[pr]
		}
		f := obj[pc]
		if f != 0 {
			for j := range obj {
				obj[j] -= f * rows[pr][j]
			}
			*objVal -= f * rhs[pr]
		}
		basis[pr] = pc
	}

	runPhase := func(obj []float64, objVal *float64, limit int) bool {
		for iter < maxIter {
			iter++
			// Bland's rule: smallest-index entering column with negative
			// reduced cost (within limit columns).
			pc := -1
			for j := 0; j < limit; j++ {
				if obj[j] < -eps {
					pc = j
					break
				}
			}
			if pc < 0 {
				return true // optimal
			}
			// Ratio test (Bland: smallest basis index ties).
			pr, best := -1, math.Inf(1)
			for i := 0; i < m; i++ {
				if rows[i][pc] > eps {
					r := rhs[i] / rows[i][pc]
					if r < best-eps || (r < best+eps && (pr < 0 || basis[i] < basis[pr])) {
						best, pr = r, i
					}
				}
			}
			if pr < 0 {
				return false // unbounded
			}
			pivot(obj, objVal, pr, pc)
		}
		return true // iteration cap: treat current point as final
	}

	// Phase 1: minimize sum of artificials.
	if nArt > 0 {
		obj1 := make([]float64, total)
		var v1 float64
		for j := n + m; j < total; j++ {
			obj1[j] = 1
		}
		// Price out basic artificials.
		for i := 0; i < m; i++ {
			if basis[i] >= n+m {
				for j := range obj1 {
					obj1[j] -= rows[i][j]
				}
				v1 -= rhs[i]
			}
		}
		if !runPhase(obj1, &v1, total) {
			return lpResult{feasible: false, iterations: iter}
		}
		if -v1 > feasEps {
			return lpResult{feasible: false, iterations: iter}
		}
		// Drive any remaining artificials out of the basis.
		for i := 0; i < m; i++ {
			if basis[i] >= n+m && rhs[i] < feasEps {
				for j := 0; j < n+m; j++ {
					if math.Abs(rows[i][j]) > eps {
						var dummy float64
						pivot(make([]float64, total), &dummy, i, j)
						break
					}
				}
			}
		}
	}

	// Phase 2: minimize c over structural + slack columns.
	obj2 := make([]float64, total)
	copy(obj2, c)
	var v2 float64
	for i := 0; i < m; i++ {
		if basis[i] < n && obj2[basis[i]] != 0 {
			f := obj2[basis[i]]
			for j := range obj2 {
				obj2[j] -= f * rows[i][j]
			}
			v2 -= f * rhs[i]
		}
		// Forbid re-entering artificials.
	}
	for j := n + m; j < total; j++ {
		obj2[j] = math.Inf(1)
	}
	if !runPhase(obj2, &v2, n+m) {
		return lpResult{unbounded: true, iterations: iter}
	}

	x := make([]float64, n)
	for i := 0; i < m; i++ {
		if basis[i] < n {
			x[basis[i]] = rhs[i]
		}
	}
	var objVal float64
	for j := 0; j < n; j++ {
		objVal += c[j] * x[j]
	}
	return lpResult{x: x, objective: objVal, feasible: true, iterations: iter}
}
