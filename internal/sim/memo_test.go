package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
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
// designs that differ in it can share an entry. Each perturbed design,
// scored on a plan that has scored the base design, must get its own
// Score, bit-identical to its Result's.
func TestMemoKeyCoversConfig(t *testing.T) {
	plan, err := Compile(models.MustBuild("efficientnet-b0", 8), FASTOptions())
	if err != nil {
		t.Fatal(err)
	}
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
		var got Score
		if err := plan.ScoreBatch([]*arch.Config{base, &other}, func(i int, s Score) { got = s }); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		r, err := plan.Evaluate(&other)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		sameScore(t, f.Name+" (scored after the base design)", scoreOf(r), got)
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
// and the second design evaluated on the first's plan equals both.
// Scored on that plan, the renamed design is a hit on the first's
// Score.
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
			sameResult(t, label+" (shared plan)", ra, eval(shared, b))
			stop := countFills()
			err = shared.ScoreBatch([]*arch.Config{a, b}, func(i int, s Score) {
				sameScore(t, fmt.Sprintf("%s design %d (score)", label, i), scoreOf(ra), s)
			})
			if fills := stop(); err != nil || fills != 1 {
				t.Errorf("%s: scoring a design and its renamed copy evaluated %d designs (%v), want 1", label, fills, err)
			}
		}
	}
}

// TestMemoDropsFullShards scores twice as many distinct designs on one
// plan as the memo holds (memoShards × memoShardCap), so every shard
// fills and is dropped wholesale, then scores the first designs again:
// each must have been dropped, must be evaluated again, and must
// re-score bit-identically to its first Score and to a fresh plan's.
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
	const again = 16
	first := make([]Score, again)
	if err := plan.ScoreBatch(designs, func(i int, s Score) {
		if i < again {
			first[i] = s
		}
	}); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range designs[:again] {
		if _, kept := plan.scores.get(keyOf(cfg)); kept {
			t.Fatalf("design %v survived %d later designs; the test never reaches a shard drop", cfg, len(designs)-1)
		}
	}
	fresh, err := Compile(g, FASTOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.EvaluateBatch(designs[:again])
	if err != nil {
		t.Fatal(err)
	}
	stop := countFills()
	err = plan.ScoreBatch(designs[:again], func(i int, s Score) {
		label := designs[i].String() + " (after a shard drop)"
		sameScore(t, label, first[i], s)
		sameScore(t, label, scoreOf(want[i]), s)
	})
	if fills := stop(); err != nil || fills != again {
		t.Errorf("re-scoring %d dropped designs evaluated %d (%v)", again, fills, err)
	}
}

// TestScoreMemoBytesPerDesign is the memory guard on the score memo: a
// greedy plan that has scored 2,000 distinct efficientnet-b7 designs
// may keep at most 256 B of live heap per design. Keeping each design's
// mappings and greedy placement cost about 4.6 KB.
func TestScoreMemoBytesPerDesign(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory and pool drops swamp the figure")
	}
	plan, err := Compile(models.MustBuild("efficientnet-b7", 8), FASTOptions())
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	s := arch.Space{}
	seen := map[designKey]bool{}
	var designs []*arch.Config
	for rng := rand.New(rand.NewSource(43)); len(designs) < n; {
		if cfg := s.Random(rng, arch.FASTLarge()); !seen[keyOf(cfg)] {
			seen[keyOf(cfg)] = true
			designs = append(designs, cfg)
		}
	}
	// A warm-up batch of other designs sizes the pooled scratch; two
	// collections empty every sync.Pool before each reading.
	if err := plan.ScoreBatch(randomSweep(rand.New(rand.NewSource(44)), 8), func(int, Score) {}); err != nil {
		t.Fatal(err)
	}
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := live()
	if err := plan.ScoreBatch(designs, func(int, Score) {}); err != nil {
		t.Fatal(err)
	}
	after := live()
	perDesign := (float64(after) - float64(before)) / n
	t.Logf("the plan keeps %.0f B of live heap per scored design", perDesign)
	if perDesign > 256 {
		t.Errorf("the plan keeps %.0f B of live heap per scored design, want at most 256", perDesign)
	}
	runtime.KeepAlive(plan)
	runtime.KeepAlive(designs)
}
