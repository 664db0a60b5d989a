package sim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"fast/internal/arch"
	"fast/internal/mapping"
	"fast/internal/models"
	"fast/internal/power"
)

// planDesigns are the reference designs the differential suite sweeps.
func planDesigns() []*arch.Config {
	return []*arch.Config{
		arch.TPUv3(), arch.DieShrunkTPUv3(), arch.FASTLarge(), arch.FASTSmall(),
	}
}

// planOptionSets are the software stacks the differential suite sweeps.
func planOptionSets() map[string]Options {
	return map[string]Options{
		"baseline": BaselineOptions(),
		"fast":     FASTOptions(),
	}
}

// sameResult asserts bit-identical Results (float fields compared
// exactly; DeepEqual never tolerates ULP drift).
func sameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: Compile+Evaluate diverged from Simulate", label)
		if want.LatencySec != got.LatencySec || want.QPS != got.QPS {
			t.Errorf("%s: latency %x vs %x, qps %x vs %x",
				label, want.LatencySec, got.LatencySec, want.QPS, got.QPS)
		}
	}
}

// TestCompileEvaluateMatchesSimulate is the differential property test
// the plan split is held to: for every registry model × reference design
// × option set, Compile(g, opts).Evaluate(d) must produce a bit-identical
// Result to the frozen pre-split simulator (reference_test.go) —
// including per-region statistics, the fusion solution, and failure
// annotations. Simulate is itself Compile+Evaluate now, so the oracle is
// the frozen copy, not Simulate: a shared arithmetic regression in the
// hot path cannot cancel out of the comparison. A second Evaluate of the
// same plan must also match, proving Evaluate leaves no state behind.
func TestCompileEvaluateMatchesSimulate(t *testing.T) {
	if testing.Short() {
		t.Skip("full differential sweep is not short")
	}
	for _, model := range models.Names() {
		if usesKVCache(model) {
			// The frozen pre-split simulator predates KV-cache residency;
			// decode workloads are pinned by their own golden results and
			// the decode-vs-prefill differential in the models package.
			continue
		}
		for _, cfg := range planDesigns() {
			g := models.MustBuild(model, cfg.NativeBatch)
			for optName, opts := range planOptionSets() {
				label := fmt.Sprintf("%s/%s/%s", model, cfg.Name, optName)
				want, err := referenceSimulate(g, cfg, opts)
				if err != nil {
					t.Fatalf("%s: referenceSimulate: %v", label, err)
				}
				plan, err := Compile(g, opts)
				if err != nil {
					t.Fatalf("%s: Compile: %v", label, err)
				}
				got, err := plan.Evaluate(cfg)
				if err != nil {
					t.Fatalf("%s: Evaluate: %v", label, err)
				}
				sameResult(t, label, want, got)
				again, err := plan.Evaluate(cfg)
				if err != nil {
					t.Fatalf("%s: second Evaluate: %v", label, err)
				}
				sameResult(t, label+" (re-evaluate)", want, again)
			}
		}
	}
}

// TestPlanSharedAcrossDesigns evaluates one compiled plan against every
// reference design and checks each against the frozen pre-split
// simulator — the pattern the search loop relies on (one plan, many
// candidates).
func TestPlanSharedAcrossDesigns(t *testing.T) {
	g := models.MustBuild("efficientnet-b0", 128)
	plan, err := Compile(g, FASTOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range planDesigns() {
		got, err := plan.Evaluate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		want, err := referenceSimulate(g, cfg, FASTOptions())
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, cfg.Name, want, got)
	}
}

// TestPlanConcurrentEvaluate hammers one shared Plan from many
// goroutines across several designs; run under -race it proves Evaluate
// never mutates plan state, and every concurrent result must still be
// bit-identical to its serial reference.
func TestPlanConcurrentEvaluate(t *testing.T) {
	g := models.MustBuild("efficientnet-b0", 128)
	opts := FASTOptions()
	plan, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	designs := planDesigns()
	refs := make([]*Result, len(designs))
	for i, cfg := range designs {
		if refs[i], err = plan.Evaluate(cfg); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
	}

	const goroutines = 8
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds*len(designs))
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for i, cfg := range designs {
					r, err := plan.Evaluate(cfg)
					if err != nil {
						errs <- fmt.Errorf("worker %d %s: %v", w, cfg.Name, err)
						return
					}
					if !reflect.DeepEqual(refs[i], r) {
						errs <- fmt.Errorf("worker %d %s: concurrent result diverged", w, cfg.Name)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestOptionsFingerprint checks the plan-cache key discriminates every
// result-changing option and identifies equal option sets (including
// separately allocated but equal power models).
func TestOptionsFingerprint(t *testing.T) {
	if got, want := FASTOptions().Fingerprint(), FASTOptions().Fingerprint(); got != want {
		t.Errorf("equal options disagree: %q vs %q", got, want)
	}
	base := FASTOptions()
	variants := map[string]func(*Options){
		"two-pass":   func(o *Options) { o.TwoPassSoftmax = true },
		"auto-off":   func(o *Options) { o.AutoSoftmax = false },
		"fusion-off": func(o *Options) { o.Fusion.Disable = true },
		// nil means "all schemes", a non-nil empty slice means "none":
		// the fingerprint must keep them apart.
		"no-schemes":   func(o *Options) { o.Mapping.Schemes = []mapping.Scheme{} },
		"ws-only":      func(o *Options) { o.Mapping.Schemes = []mapping.Scheme{mapping.WeightStationary} },
		"whole-tensor": func(o *Options) { o.WholeTensorFusion = true },
		"dw-vpu":       func(o *Options) { o.DepthwiseOnVPU = true },
	}
	seen := map[string]string{base.Fingerprint(): "base"}
	for name, mutate := range variants {
		o := base
		mutate(&o)
		fp := o.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("variant %q collides with %q: %s", name, prev, fp)
		}
		seen[fp] = name
	}
	// The ILP deadline keys only plans whose fusion is an exact solve.
	greedy, exact := FASTOptions(), FASTOptions()
	exact.Fusion.GreedyOnly = false
	for _, c := range []struct {
		name string
		o    Options
		same bool
	}{{"greedy", greedy, true}, {"exact", exact, false}} {
		d := c.o
		d.Fusion.Deadline = 3 * time.Second
		if got := c.o.Fingerprint() == d.Fingerprint(); got != c.same {
			t.Errorf("%s options differing only in ILP deadline share a key: %t, want %t", c.name, got, c.same)
		}
	}
	// Two equal-by-value power models must share a fingerprint even
	// though the pointers differ.
	a, b := BaselineOptions(), BaselineOptions()
	a.PowerModel, b.PowerModel = power.Default(), power.Default()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("equal power models produced different fingerprints")
	}
	// nil means "use power.Default()" at Evaluate time, so nil and an
	// explicit default model must share one plan-cache key.
	b.PowerModel = nil
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("nil power model must fingerprint like power.Default()")
	}
}
