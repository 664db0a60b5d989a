package mapping

import "testing"

// TestSchemeKey pins the properties the sim stage cache relies on: nil
// and an explicit full-universe list share a key (Best treats them
// identically), every other restriction — including the non-nil empty
// slice and reorderings — gets its own key.
func TestSchemeKey(t *testing.T) {
	key := func(s []Scheme) uint64 { return Options{Schemes: s}.SchemeKey() }

	if key(nil) != key(allSchemes[:]) {
		t.Error("nil and an explicit full-universe list must share a SchemeKey")
	}
	distinct := [][]Scheme{
		nil,
		{},
		{WeightStationary},
		{OutputStationary},
		{Conv1D},
		{WeightStationary, OutputStationary},
		{OutputStationary, WeightStationary}, // order matters: ties resolve to the earlier scheme
		{WeightStationary, OutputStationary, Conv1D, Conv1D},
	}
	seen := map[uint64]int{}
	for i, s := range distinct {
		k := key(s)
		if prev, dup := seen[k]; dup {
			t.Errorf("scheme sets %d and %d collide on SchemeKey %x", prev, i, k)
		}
		seen[k] = i
	}
}

// TestEffectiveSchemes checks the nil/empty distinction survives.
func TestEffectiveSchemes(t *testing.T) {
	if got := (Options{}).effectiveSchemes(); len(got) != len(allSchemes) {
		t.Errorf("nil Schemes: got %v, want full universe", got)
	}
	if got := (Options{Schemes: []Scheme{}}).effectiveSchemes(); len(got) != 0 {
		t.Errorf("empty Schemes: got %v, want none", got)
	}
	restricted := []Scheme{OutputStationary}
	if got := (Options{Schemes: restricted}).effectiveSchemes(); len(got) != 1 || got[0] != OutputStationary {
		t.Errorf("restricted Schemes: got %v", got)
	}
}
