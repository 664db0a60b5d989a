package search

import (
	"math"
	"math/rand"
	"testing"

	"fast/internal/arch"
)

// mt builds a feasible multi-objective trial whose first coordinates
// encode the point's identity.
func mt(id int, vals ...float64) Trial {
	var idx [arch.NumParams]int
	idx[0] = id % 9
	idx[1] = (id / 9) % 9
	idx[2] = (id / 81) % 9
	return Trial{Index: idx, Evaluation: Evaluation{Value: vals[0], Values: vals, Feasible: true}}
}

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{2, 2}, []float64{1, 1}, true},
		{[]float64{2, 1}, []float64{1, 1}, true},
		{[]float64{1, 1}, []float64{1, 1}, false}, // equal: no strict gain
		{[]float64{2, 0}, []float64{1, 1}, false}, // trade-off
		{[]float64{1, 1}, []float64{2, 2}, false},
	}
	for _, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestArchiveKeepsExactlyNonDominated(t *testing.T) {
	a := NewParetoArchive(0)
	a.Add(mt(1, 1, 4))
	a.Add(mt(2, 2, 3))
	a.Add(mt(3, 1, 3)) // dominated by #2
	a.Add(mt(4, 4, 1))
	a.Add(mt(5, 3, 3)) // dominates and evicts #2
	if got := a.Len(); got != 3 {
		t.Fatalf("archive size = %d, want 3", got)
	}
	front := a.Front()
	ids := map[float64]bool{}
	for _, tr := range front {
		ids[tr.Values[0]] = true
	}
	for _, want := range []float64{1, 3, 4} {
		if !ids[want] {
			t.Errorf("front missing the point with v1=%v: %+v", want, front)
		}
	}
}

func TestArchiveRejectsInfeasibleAndRevisits(t *testing.T) {
	a := NewParetoArchive(0)
	if a.Add(Trial{Evaluation: Evaluation{Values: []float64{9, 9}}}) {
		t.Error("infeasible trial entered the archive")
	}
	p := mt(7, 1, 1)
	if !a.Add(p) {
		t.Fatal("first observation rejected")
	}
	if a.Add(p) {
		t.Error("revisit of an archived index entered again")
	}
	if a.Len() != 1 {
		t.Errorf("archive size = %d, want 1", a.Len())
	}
}

func TestArchiveScalarFallback(t *testing.T) {
	// Feasible trials without a Values vector participate as {Value}.
	a := NewParetoArchive(0)
	a.Add(Trial{Index: [arch.NumParams]int{1}, Evaluation: Evaluation{Value: 1, Feasible: true}})
	a.Add(Trial{Index: [arch.NumParams]int{2}, Evaluation: Evaluation{Value: 3, Feasible: true}})
	a.Add(Trial{Index: [arch.NumParams]int{3}, Evaluation: Evaluation{Value: 2, Feasible: true}})
	if a.Len() != 1 || a.Front()[0].Value != 3 {
		t.Errorf("scalar archive should hold only the max: %+v", a.Front())
	}
}

func TestArchiveCrowdingPruneKeepsBoundaries(t *testing.T) {
	// A dense non-dominated line: pruning must evict interior points,
	// never the extremes of either objective.
	a := NewParetoArchive(4)
	n := 20
	for i := 0; i < n; i++ {
		a.Add(mt(i, float64(i), float64(n-1-i)))
	}
	if a.Len() != 4 {
		t.Fatalf("archive size = %d, want capacity 4", a.Len())
	}
	var hasMin, hasMax bool
	for _, tr := range a.Front() {
		if tr.Values[0] == 0 {
			hasMin = true
		}
		if tr.Values[0] == float64(n-1) {
			hasMax = true
		}
	}
	if !hasMin || !hasMax {
		t.Errorf("pruning evicted a boundary point: %+v", a.Front())
	}
}

func TestArchiveDeterministicUnderReplay(t *testing.T) {
	// The archive is a pure function of the Add sequence: replaying the
	// same trials yields the identical front, including prunes.
	trials := make([]Trial, 0, 64)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 64; i++ {
		trials = append(trials, mt(i, math.Floor(r.Float64()*10), math.Floor(r.Float64()*10), math.Floor(r.Float64()*10)))
	}
	run := func() []Trial {
		a := NewParetoArchive(6)
		for _, tr := range trials {
			a.Add(tr)
		}
		return a.Front()
	}
	f1, f2 := run(), run()
	if len(f1) != len(f2) {
		t.Fatalf("front sizes differ: %d vs %d", len(f1), len(f2))
	}
	for i := range f1 {
		if !f1[i].Equal(f2[i]) {
			t.Fatalf("front point %d differs between replays", i)
		}
	}
}

// bruteNonDominated returns the non-dominated subset of the history:
// first observation per index vector, minus every trial strictly
// dominated by any other retained trial.
func bruteNonDominated(history []Trial) []Trial {
	var uniq []Trial
	seen := map[[arch.NumParams]int]bool{}
	for _, tr := range history {
		if !tr.Feasible || seen[tr.Index] {
			continue
		}
		seen[tr.Index] = true
		tr.Values = tr.ObjectiveVector()
		uniq = append(uniq, tr)
	}
	var out []Trial
	for i, tr := range uniq {
		dominated := false
		for j, other := range uniq {
			if i != j && Dominates(other.Values, tr.Values) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, tr)
		}
	}
	return out
}

// FuzzParetoArchive checks the archive's core contract on random trial
// streams: with no capacity bound, its contents are exactly the
// non-dominated subset of the history.
func FuzzParetoArchive(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(2))
	f.Add(int64(7), uint8(90), uint8(3))
	f.Add(int64(123), uint8(200), uint8(4))
	f.Add(int64(-5), uint8(13), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, nObj uint8) {
		objs := int(nObj)%4 + 1
		r := rand.New(rand.NewSource(seed))
		history := make([]Trial, 0, int(n))
		for i := 0; i < int(n); i++ {
			var tr Trial
			// A tiny grid forces revisits; small value domains force
			// ties and duplicates.
			tr.Index[0] = r.Intn(4)
			tr.Index[1] = r.Intn(4)
			tr.Index[2] = r.Intn(4)
			if r.Intn(5) > 0 {
				vals := make([]float64, objs)
				for k := range vals {
					vals[k] = float64(r.Intn(5))
				}
				tr.Evaluation = Evaluation{Value: vals[0], Values: vals, Feasible: true}
			}
			history = append(history, tr)
		}
		// Memoization discipline: every revisit of an index replays the
		// first evaluation (the archive assumes this, like the Runner).
		firstEval := map[[arch.NumParams]int]Evaluation{}
		for i := range history {
			if ev, ok := firstEval[history[i].Index]; ok {
				history[i].Evaluation = ev
			} else {
				firstEval[history[i].Index] = history[i].Evaluation
			}
		}

		a := NewParetoArchive(0)
		for _, tr := range history {
			a.Add(tr)
		}
		want := bruteNonDominated(history)
		got := a.Front()
		if len(got) != len(want) {
			t.Fatalf("front size %d, brute force %d\n got: %+v\nwant: %+v", len(got), len(want), got, want)
		}
		wantBy := map[[arch.NumParams]int][]float64{}
		for _, tr := range want {
			wantBy[tr.Index] = tr.Values
		}
		for _, tr := range got {
			w, ok := wantBy[tr.Index]
			if !ok {
				t.Fatalf("archived point %v not in brute-force front", tr.Index)
			}
			for k := range w {
				if tr.Values[k] != w[k] {
					t.Fatalf("archived values %v differ from history values %v at %v", tr.Values, w, tr.Index)
				}
			}
		}
	})
}

// Len returns the number of archived points.
func (a *ParetoArchive) Len() int { return len(a.points) }
