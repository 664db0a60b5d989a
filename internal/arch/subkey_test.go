package arch

import (
	"math/rand"
	"testing"
)

// TestSubKeyDistinguishesEveryMaskedParam walks every parameter (each
// one owns a slot of the key): two configs differing only in that
// parameter must have different SubKeys. L2 is enabled unless the walk
// is over PL2Config, so the multiplier slots are live.
func TestSubKeyDistinguishesEveryMaskedParam(t *testing.T) {
	s := Space{}
	dims := s.Dims()
	base := FASTLarge()
	for p := 0; p < NumParams; p++ {
		for v := 1; v < dims[p]; v++ {
			var a, b [NumParams]int
			if p != PL2Config {
				a[PL2Config], b[PL2Config] = 1, 1
			}
			b[p] = v
			ca, cb := s.Decode(a, base), s.Decode(b, base)
			if err := ca.Validate(); err != nil {
				t.Fatalf("decoded config invalid: %v", err)
			}
			if ca.SubKey() == cb.SubKey() {
				t.Errorf("param %s value %d: SubKey collides", ParamNames[p], v)
			}
		}
	}
}

// TestSubKeyCanonicalizesDeadParams: L2 multipliers with L2 disabled, and
// nothing else, are dead — configs differing only there must share a key.
func TestSubKeyCanonicalizesDeadParams(t *testing.T) {
	s := Space{}
	base := FASTLarge()
	var a, b [NumParams]int
	a[PL2Config], b[PL2Config] = 0, 0 // disabled
	a[PL2InputMult], b[PL2InputMult] = 0, 7
	a[PL2WeightMult], b[PL2WeightMult] = 3, 5
	if k1, k2 := s.Decode(a, base).SubKey(), s.Decode(b, base).SubKey(); k1 != k2 {
		t.Errorf("disabled-L2 multiplier variants must share a SubKey: %x vs %x", k1, k2)
	}
	// Reference designs carry zero-valued multipliers with L2 disabled;
	// SubKey must accept them (no log2(0) aliasing with real values).
	for _, name := range designNames() {
		c := ByName(name)
		_ = c.SubKey()
	}
}

// TestSubKeyRandomInjective cross-checks random config pairs: equal
// SubKey() implies equal live parameters.
func TestSubKeyRandomInjective(t *testing.T) {
	s := Space{}
	base := FASTLarge()
	rng := rand.New(rand.NewSource(3))
	type seenCfg struct {
		idx [NumParams]int
	}
	seen := map[uint64]seenCfg{}
	live := func(idx [NumParams]int) [NumParams]int {
		if idx[PL2Config] == 0 {
			idx[PL2InputMult], idx[PL2WeightMult], idx[PL2OutputMult] = 0, 0, 0
		}
		return idx
	}
	for i := 0; i < 5000; i++ {
		var idx [NumParams]int
		for d, card := range s.Dims() {
			idx[d] = rng.Intn(card)
		}
		k := s.Decode(idx, base).SubKey()
		if prev, ok := seen[k]; ok && live(prev.idx) != live(idx) {
			t.Fatalf("SubKey collision: %v vs %v → %x", prev.idx, idx, k)
		}
		seen[k] = seenCfg{idx: idx}
	}
}

// TestCanonicalMatchesSubKey ties Space.Canonical to SubKey():
// two vectors are canonically equal exactly when their designs' keys
// are. Each class of one must be a class of the other, checked over
// every combination of the conditional dimensions (L2 config and its
// three multipliers) under seeded samples of the other twelve, and over
// seeded samples of the whole space.
func TestCanonicalMatchesSubKey(t *testing.T) {
	s := Space{}
	dims := s.Dims()
	base := FASTLarge()
	rng := rand.New(rand.NewSource(9))
	check := func(vecs [][NumParams]int) {
		t.Helper()
		byKey := map[uint64][NumParams]int{}
		byCanon := map[[NumParams]int]uint64{}
		for _, idx := range vecs {
			k, c := s.Decode(idx, base).SubKey(), s.Canonical(idx)
			if prev, ok := byKey[k]; ok && prev != c {
				t.Fatalf("equal SubKey %x, canonical %v and %v", k, prev, c)
			}
			if prev, ok := byCanon[c]; ok && prev != k {
				t.Fatalf("canonical %v, SubKeys %x and %x", c, prev, k)
			}
			byKey[k], byCanon[c] = c, k
			if s.Canonical(c) != c {
				t.Fatalf("Canonical(%v) = %v is not a fixed point", c, s.Canonical(c))
			}
		}
	}
	random := func() [NumParams]int {
		var idx [NumParams]int
		for d, card := range dims {
			idx[d] = rng.Intn(card)
		}
		return idx
	}
	for sample := 0; sample < 8; sample++ {
		idx := random()
		var vecs [][NumParams]int
		for l2 := 0; l2 < dims[PL2Config]; l2++ {
			for in := 0; in < dims[PL2InputMult]; in++ {
				for w := 0; w < dims[PL2WeightMult]; w++ {
					for out := 0; out < dims[PL2OutputMult]; out++ {
						idx[PL2Config], idx[PL2InputMult], idx[PL2WeightMult], idx[PL2OutputMult] = l2, in, w, out
						vecs = append(vecs, idx)
					}
				}
			}
		}
		check(vecs)
	}
	vecs := make([][NumParams]int, 20000)
	for i := range vecs {
		vecs[i] = random()
	}
	check(vecs)
}
