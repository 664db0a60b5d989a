package ilp

import (
	"math"
	"math/rand"
	"testing"
)

// checkStateReuse runs one lpState through problems of changing shape:
// each of the given problems followed by three small random ones, then
// the given problems again, each now loaded into buffers a smaller
// problem left behind. Every result must equal, bit for bit, a solve of
// the same problem on a fresh state, and the state must hold nothing of
// a problem's rows once its solve returns — what statePool keeps.
// Exported to the external tests (export_test.go), which feed it real
// fusion instances.
func checkStateReuse(t testing.TB, problems []Problem, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var seq []Problem
	for _, p := range problems {
		seq = append(seq, p, randMixedProblem(rng), randMixedProblem(rng), randMixedProblem(rng))
	}
	seq = append(seq, problems...)
	// Node-counted stops only, so both solves end at the same node on
	// any host.
	o := Options{RelGap: 1e-3, StallNodes: 256}
	reused := new(lpState)
	for i, p := range seq {
		got := solveOn(reused, p, o)
		if reused.c.rows != nil {
			t.Fatalf("problem %d (%d rows): the state still holds the caller's rows after the solve", i, len(p.A))
		}
		want := solveOn(new(lpState), p, o)
		if !sameResult(got, want) {
			t.Fatalf("problem %d (%d rows × %d columns): reused state gave %+v, a fresh one %+v",
				i, len(p.A), len(p.C), got, want)
		}
	}
}

// sameResult reports whether two results are equal bit for bit.
func sameResult(a, b Result) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if len(a.X) != len(b.X) || !same(a.Objective, b.Objective) || !same(a.BestBound, b.BestBound) || !same(a.Gap, b.Gap) ||
		a.Feasible != b.Feasible || a.Optimal != b.Optimal || a.WithinTol != b.WithinTol ||
		a.Nodes != b.Nodes || a.ImprovedAt != b.ImprovedAt {
		return false
	}
	for i := range a.X {
		if !same(a.X[i], b.X[i]) {
			return false
		}
	}
	return true
}
