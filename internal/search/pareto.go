package search

import (
	"math"
	"sort"

	"fast/internal/arch"
)

// Dominates reports whether objective vector a Pareto-dominates b: a is
// at least as good on every objective and strictly better on one. Both
// vectors are maximize-oriented (Evaluation.Values convention) and must
// have the same length; extra components of the longer vector are
// ignored.
func Dominates(a, b []float64) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	better := false
	for m := 0; m < n; m++ {
		if a[m] < b[m] {
			return false
		}
		if a[m] > b[m] {
			better = true
		}
	}
	return better
}

// ParetoArchive maintains the non-dominated set of the feasible trials
// it has seen. Infeasible trials never enter — they are "dominated
// last", which is how budget-constrained searches keep Eq. 4 violations
// out of the frontier. The archive is fully deterministic: its contents
// are a pure function of the Add sequence, and when a capacity is set,
// pruning removes the most crowded point under a fixed tie-break — so
// two drivers replaying the same trial transcript (e.g. the same study
// at different parallelism) hold identical archives.
type ParetoArchive struct {
	// capacity bounds the archive size; <= 0 is unbounded. When an
	// insertion overflows the bound, the point with the smallest
	// crowding distance is evicted (ties evict the lexicographically
	// greatest index vector, so earlier grid points are preferred).
	capacity int
	points   []Trial
}

// NewParetoArchive returns an empty archive. capacity <= 0 is unbounded
// (the archive holds the exact non-dominated set of everything added).
func NewParetoArchive(capacity int) *ParetoArchive {
	return &ParetoArchive{capacity: capacity}
}

// Add offers a trial to the archive and reports whether it entered.
// Infeasible trials, trials without an objective vector, dominated
// trials, and re-observations of an already-archived index vector are
// rejected; an accepted trial evicts every point it dominates, then the
// most crowded point if the capacity is exceeded.
func (a *ParetoArchive) Add(t Trial) bool {
	vals := t.ObjectiveVector()
	if vals == nil {
		return false
	}
	t.Values = vals
	for _, p := range a.points {
		if p.Index == t.Index {
			// Revisit of an archived design (drivers memoize, so the
			// evaluation is identical); the first observation stands.
			return false
		}
		if Dominates(p.Values, vals) {
			return false
		}
	}
	keep := a.points[:0]
	for _, p := range a.points {
		if !Dominates(vals, p.Values) {
			keep = append(keep, p)
		}
	}
	a.points = append(keep, t)
	if a.capacity > 0 && len(a.points) > a.capacity {
		a.evictMostCrowded()
	}
	return true
}

// Front returns the archived non-dominated set, sorted by index vector
// (lexicographically) so the order is canonical regardless of insertion
// history. The slice is a copy; callers may reorder it freely.
func (a *ParetoArchive) Front() []Trial {
	out := make([]Trial, len(a.points))
	copy(out, a.points)
	sort.Slice(out, func(i, j int) bool {
		return lessIndex(out[i].Index, out[j].Index)
	})
	return out
}

// evictMostCrowded removes the point with the smallest crowding
// distance; among ties it removes the lexicographically greatest index
// vector.
func (a *ParetoArchive) evictMostCrowded() {
	vals := make([][]float64, len(a.points))
	for i, p := range a.points {
		vals[i] = p.Values
	}
	crowd := crowdingDistances(vals)
	victim := 0
	for i := 1; i < len(a.points); i++ {
		switch {
		case crowd[i] < crowd[victim]:
			victim = i
		case crowd[i] == crowd[victim] &&
			lessIndex(a.points[victim].Index, a.points[i].Index):
			victim = i
		}
	}
	a.points = append(a.points[:victim], a.points[victim+1:]...)
}

// lessIndex orders hyperparameter index vectors lexicographically.
func lessIndex(a, b [arch.NumParams]int) bool {
	for d := 0; d < arch.NumParams; d++ {
		if a[d] != b[d] {
			return a[d] < b[d]
		}
	}
	return false
}

// crowdingDistances computes the NSGA-II crowding distance of each
// objective vector: per objective, points are sorted and each interior
// point accumulates the normalized gap between its neighbours; boundary
// points get +Inf. Ties within an objective sort by original position,
// so the result is deterministic for a deterministic input order.
func crowdingDistances(vals [][]float64) []float64 {
	n := len(vals)
	dist := make([]float64, n)
	if n == 0 {
		return dist
	}
	nObj := len(vals[0])
	order := make([]int, n)
	for m := 0; m < nObj; m++ {
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return vals[order[a]][m] < vals[order[b]][m]
		})
		lo, hi := vals[order[0]][m], vals[order[n-1]][m]
		if hi == lo {
			continue // no spread on this objective
		}
		dist[order[0]] = math.Inf(1)
		dist[order[n-1]] = math.Inf(1)
		for k := 1; k < n-1; k++ {
			dist[order[k]] += (vals[order[k+1]][m] - vals[order[k-1]][m]) / (hi - lo)
		}
	}
	return dist
}
