package sim

import (
	"fmt"
	"math"
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

// perturbation is one field of arch.Config set to another valid value:
// other is base with that field changed; ok is false when the walk
// found no valid value for it.
type perturbation struct {
	field       string
	base, other *arch.Config
	ok          bool
}

// configPerturbations walks every field of arch.Config by reflection
// and perturbs each on its own, from a design newBase returns (with L2
// on for the L2 fields, whose multipliers are dead while L2 is off).
func configPerturbations(t *testing.T, newBase func() *arch.Config) []perturbation {
	t.Helper()
	rt := reflect.TypeOf(arch.Config{})
	var out []perturbation
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		base := newBase()
		if strings.HasPrefix(f.Name, "L2") {
			base.L2Config = arch.Private
			base.L2InputMult, base.L2WeightMult, base.L2OutputMult = 2, 2, 2
		}
		if err := base.Validate(); err != nil {
			t.Fatalf("%s: base design invalid: %v", f.Name, err)
		}
		other := *base
		ok := perturb(reflect.ValueOf(&other).Elem().Field(i), &other)
		out = append(out, perturbation{f.Name, base, &other, ok})
	}
	return out
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
	for _, pt := range configPerturbations(t, arch.FASTLarge) {
		if !pt.ok {
			t.Errorf("field %s: no valid perturbation; key it or exempt it", pt.field)
			continue
		}
		same := keyOf(pt.base) == keyOf(pt.other)
		if _, exempt := memoExempt[pt.field]; exempt {
			if !same {
				t.Errorf("exempt field %s changes the memo key", pt.field)
			}
		} else if same {
			t.Errorf("field %s is not in the memo key: two designs differing in it share an entry", pt.field)
		}
		var got Score
		if err := plan.ScoreBatch([]*arch.Config{pt.base, pt.other}, func(i int, s Score) { got = s }); err != nil {
			t.Fatalf("%s: %v", pt.field, err)
		}
		r, err := plan.Evaluate(pt.other)
		if err != nil {
			t.Fatalf("%s: %v", pt.field, err)
		}
		sameScore(t, pt.field+" (scored after the base design)", scoreOf(r), got)
	}
}

// timingKeyOn returns cfg's timing key on plan p, as a design-memo
// miss computes it.
func timingKeyOn(p *Plan, cfg *arch.Config) (timingKey, bool) {
	var s evalScratch
	tm := timingOf(cfg)
	return tm.key(s.mappings(p, cfg))
}

// TestTimingKeyCoversEvaluate perturbs one arch.Config field at a time
// (TestMemoKeyCoversConfig's walk) on efficientnet-b0, bert-128 under
// automatic, three-pass and two-pass softmax, and gpt2-decode-1024 (KV
// holds), from FAST-Large and from FAST-Small without Global Memory
// (where the blocking capacity falls to 192 KiB of L1, small enough
// for the traffic floor to bite), plus one pair the walk cannot reach:
// a design whose capacity falls to 2 MiB of L1 and its twin with 2 MiB
// of Global Memory, which share a capacity. Wherever a perturbed
// design keeps the base design's timing key, it must time the same:
// fresh plans' Evaluate gives both designs a bit-identical latency.
// Scored after the base design on a shared plan, where its Score comes
// from the timing memo, every perturbed design's Score must equal its
// own Result's. An L1-size perturbation of FAST-Large keeps the key, so
// each plan has a hit to check; a value evaluate reads that the key
// leaves out (the clock, say) fails it.
func TestTimingKeyCoversEvaluate(t *testing.T) {
	noGM := func() *arch.Config {
		cfg := arch.FASTSmall()
		cfg.GlobalMiB = 0
		return cfg
	}
	l1Cap := arch.FASTLarge()
	l1Cap.GlobalMiB, l1Cap.L1OutputKiB = 0, 16 // 64 PEs × 32 KiB
	gmCap := *l1Cap
	gmCap.GlobalMiB = 2
	if capacityBytes(l1Cap) != capacityBytes(&gmCap) {
		t.Fatal("the twins' blocking capacities differ")
	}
	twins := perturbation{"GlobalMiB (to the L1 capacity)", l1Cap, &gmCap, true}
	threePass := FASTOptions()
	threePass.AutoSoftmax = false
	twoPass := threePass
	twoPass.TwoPassSoftmax = true
	for _, tc := range []struct {
		model, optName string
		opts           Options
	}{
		{"efficientnet-b0", "fast", FASTOptions()},
		{"bert-128", "fast", FASTOptions()},
		{"bert-128", "three-pass", threePass},
		{"bert-128", "two-pass", twoPass},
		{"gpt2-decode-1024", "fast", FASTOptions()},
	} {
		label := tc.model + "/" + tc.optName
		g := models.MustBuild(tc.model, 8)
		compile := func() *Plan {
			p, err := Compile(g, tc.opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			return p
		}
		fresh := func(cfg *arch.Config) *Result {
			r, err := compile().Evaluate(cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			return r
		}
		shared := compile()
		l1Hits := 0
		walk := append(configPerturbations(t, arch.FASTLarge), configPerturbations(t, noGM)...)
		for _, pt := range append(walk, twins) {
			if !pt.ok {
				continue // TestMemoKeyCoversConfig reports it
			}
			kb, ok := timingKeyOn(shared, pt.base)
			if !ok {
				t.Fatalf("%s: %s: the base design does not map", label, pt.field)
			}
			ko, ok := timingKeyOn(shared, pt.other)
			hit := ok && ko == kb
			var got Score
			if err := shared.ScoreBatch([]*arch.Config{pt.base, pt.other}, func(i int, s Score) { got = s }); err != nil {
				t.Fatalf("%s: %s: %v", label, pt.field, err)
			}
			want := fresh(pt.other)
			sameScore(t, label+": "+pt.field+" (scored after the base design)", scoreOf(want), got)
			if !hit {
				continue
			}
			if _, held := shared.latencies.get(kb); !held {
				t.Fatalf("%s: %s: the base design's latency is not memoized", label, pt.field)
			}
			if base := fresh(pt.base); math.Float64bits(base.LatencySec) != math.Float64bits(want.LatencySec) {
				t.Errorf("%s: field %s keeps the timing key but moves the latency %v → %v: evaluate reads a value the key leaves out",
					label, pt.field, base.LatencySec, want.LatencySec)
			}
			if pt.base.GlobalMiB > 0 && strings.HasPrefix(pt.field, "L1") && strings.HasSuffix(pt.field, "KiB") {
				l1Hits++
			}
		}
		if l1Hits == 0 {
			t.Errorf("%s: no L1-size perturbation of FAST-Large keeps its timing key; the test checks no hit", label)
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
