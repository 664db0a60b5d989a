package sim

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"fast/internal/arch"
	"fast/internal/models"
)

// memoExempt lists the arch.Config fields the design memo's key leaves
// out, each with the reason the simulator cannot see it.
var memoExempt = map[string]string{
	"Name": "a label: no simulated quantity reads it",
}

// TestMemoKeyCoversConfig walks every field of arch.Config by reflection.
// Perturbing any field that is not exempt to another valid value must
// change the memo key; a field of a kind the walk cannot perturb, or one
// whose perturbation leaves the key unchanged, fails the test. So a new
// Config field must be keyed (or exempted with a reason) before two
// designs that differ in it can share an entry.
func TestMemoKeyCoversConfig(t *testing.T) {
	rt := reflect.TypeOf(arch.Config{})
	for name := range memoExempt {
		if _, ok := rt.FieldByName(name); !ok {
			t.Errorf("exempt field %s is not a field of arch.Config", name)
		}
	}
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		base := arch.FASTLarge()
		if strings.HasPrefix(f.Name, "L2") {
			// The multipliers are dead, and not keyed, while L2 is off.
			base.L2Config = arch.Private
			base.L2InputMult, base.L2WeightMult, base.L2OutputMult = 2, 2, 2
		}
		if err := base.Validate(); err != nil {
			t.Fatalf("%s: base design invalid: %v", f.Name, err)
		}
		other := *base
		if !perturb(reflect.ValueOf(&other).Elem().Field(i), &other) {
			t.Errorf("field %s (%s): no valid perturbation; key it or exempt it", f.Name, f.Type)
			continue
		}
		same := keyOf(base) == keyOf(&other)
		if _, exempt := memoExempt[f.Name]; exempt {
			if !same {
				t.Errorf("exempt field %s changes the memo key", f.Name)
			}
		} else if same {
			t.Errorf("field %s is not in the memo key: two designs differing in it share an entry", f.Name)
		}
	}
}

// perturb sets v, a field of cfg, to a different value under which cfg
// still validates, and reports whether it found one.
func perturb(v reflect.Value, cfg *arch.Config) bool {
	var candidates []reflect.Value
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		x := v.Int()
		for _, c := range []int64{x * 2, x / 2, x + 1, x - 1} {
			candidates = append(candidates, reflect.ValueOf(c).Convert(v.Type()))
		}
	case reflect.Float64:
		x := v.Float()
		candidates = append(candidates, reflect.ValueOf(x*2).Convert(v.Type()))
	case reflect.String:
		candidates = append(candidates, reflect.ValueOf(v.String()+"-perturbed").Convert(v.Type()))
	}
	orig := reflect.New(v.Type()).Elem()
	orig.Set(v)
	for _, c := range candidates {
		if c.Equal(orig) {
			continue
		}
		v.Set(c)
		if simulable(cfg) {
			return true
		}
	}
	v.Set(orig)
	return false
}

// simulable reports whether cfg validates and names a known memory
// technology (Validate does not check Mem; an unknown one panics).
func simulable(cfg *arch.Config) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return cfg.Validate() == nil && cfg.PeakBandwidthGBs() > 0
}

// TestNameDoesNotReachResults: two designs that differ only in Name,
// each evaluated on a fresh plan, give equal Results apart from Config,
// and the second design evaluated on the first's plan (a memo hit)
// equals both.
func TestNameDoesNotReachResults(t *testing.T) {
	for _, model := range []string{"efficientnet-b0", "bert-128", "gpt2-decode-1024"} {
		g := models.MustBuild(model, 8)
		for optName, opts := range planOptionSets() {
			label := model + "/" + optName
			a := arch.FASTLarge()
			b := a.Clone("renamed")
			eval := func(p *Plan, cfg *arch.Config) *Result {
				t.Helper()
				if p == nil {
					var err error
					if p, err = Compile(g, opts); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
				r, err := p.Evaluate(cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if r.Config != cfg {
					t.Fatalf("%s: Result.Config is not the evaluated design", label)
				}
				r.Config = nil
				return r
			}
			shared, err := Compile(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			ra := eval(shared, a)
			sameResult(t, label+" (fresh plans)", ra, eval(nil, b))
			sameResult(t, label+" (memo hit)", ra, eval(shared, b))
		}
	}
}

// TestMemoDropsFullShards evaluates twice as many distinct designs on
// one plan as the memo holds (memoShards × memoShardCap), so every shard
// fills and is dropped wholesale, then evaluates the first designs
// again: each must have been dropped and each result must be
// bit-identical to a fresh plan's.
func TestMemoDropsFullShards(t *testing.T) {
	g := models.MustBuild("bert-128", 8)
	plan, err := Compile(g, FASTOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := arch.Space{}
	dims := s.Dims()
	base := arch.FASTLarge()
	rng := rand.New(rand.NewSource(41))
	seen := map[designKey]bool{}
	var designs []*arch.Config
	for len(designs) < 2*memoShards*memoShardCap {
		var idx [arch.NumParams]int
		for d, card := range dims {
			idx[d] = rng.Intn(card)
		}
		cfg := s.Decode(idx, base)
		if k := keyOf(cfg); !seen[k] {
			seen[k] = true
			designs = append(designs, cfg)
		}
	}
	if _, err := plan.EvaluateBatch(designs); err != nil {
		t.Fatal(err)
	}
	const again = 16
	for _, cfg := range designs[:again] {
		k := keyOf(cfg)
		if _, kept := plan.memo.shard(k).m[k]; kept {
			t.Fatalf("design %v survived %d later designs; the test never reaches a shard drop", cfg, len(designs)-1)
		}
	}
	fresh, err := Compile(g, FASTOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.EvaluateBatch(designs[:again])
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.EvaluateBatch(designs[:again])
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		sameResult(t, designs[i].String()+" (after a shard drop)", want[i], got[i])
	}
}
