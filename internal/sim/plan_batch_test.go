package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"fast/internal/arch"
	"fast/internal/models"
)

// TestEvaluateBatchMatchesEvaluate is the batched half of the
// differential property: for every registry model × option set,
// EvaluateBatch over the reference designs must return results
// bit-identical to per-design Evaluate AND to the frozen pre-split
// simulator, in input order.
func TestEvaluateBatchMatchesEvaluate(t *testing.T) {
	if testing.Short() {
		t.Skip("full differential sweep is not short")
	}
	for _, model := range models.Names() {
		if usesKVCache(model) {
			// The frozen pre-split simulator predates KV-cache residency;
			// decode workloads get their own EvaluateBatch differential in
			// plan_kv_test.go.
			continue
		}
		g := models.MustBuild(model, 128)
		for optName, opts := range planOptionSets() {
			label := fmt.Sprintf("%s/%s", model, optName)
			plan, err := Compile(g, opts)
			if err != nil {
				t.Fatalf("%s: Compile: %v", label, err)
			}
			designs := planDesigns()
			batch, err := plan.EvaluateBatch(designs)
			if err != nil {
				t.Fatalf("%s: EvaluateBatch: %v", label, err)
			}
			if len(batch) != len(designs) {
				t.Fatalf("%s: batch returned %d results for %d designs", label, len(batch), len(designs))
			}
			for i, cfg := range designs {
				want, err := referenceSimulate(g, cfg, opts)
				if err != nil {
					t.Fatalf("%s/%s: referenceSimulate: %v", label, cfg.Name, err)
				}
				sameResult(t, label+"/"+cfg.Name+" (batch vs frozen reference)", want, batch[i])
				serial, err := plan.Evaluate(cfg)
				if err != nil {
					t.Fatalf("%s/%s: Evaluate: %v", label, cfg.Name, err)
				}
				sameResult(t, label+"/"+cfg.Name+" (batch vs serial)", serial, batch[i])
			}
		}
	}
}

// scoreOf is the Score of a Result: its four fields of the same names.
func scoreOf(r *Result) Score {
	return Score{ScheduleFailed: r.ScheduleFailed, LatencySec: r.LatencySec, QPS: r.QPS, PerfPerTDP: r.PerfPerTDP}
}

// sameScore asserts bit-identical Scores.
func sameScore(t *testing.T, label string, want, got Score) {
	t.Helper()
	bits := func(s Score) [4]uint64 {
		failed := uint64(0)
		if s.ScheduleFailed {
			failed = 1
		}
		return [4]uint64{failed, math.Float64bits(s.LatencySec), math.Float64bits(s.QPS), math.Float64bits(s.PerfPerTDP)}
	}
	if bits(want) != bits(got) {
		t.Errorf("%s: score %+v, want %+v", label, got, want)
	}
}

// countFills counts the Scores ScoreBatch misses evaluate until the
// returned function is called, which also reports the count.
func countFills() (stop func() int64) {
	var n atomic.Int64
	restore := OnScoreFill(func(*arch.Config, Score) { n.Add(1) })
	return func() int64 {
		restore()
		return n.Load()
	}
}

// TestScoreBatchMatchesEvaluateBatch: ScoreBatch hands each design's
// Score to the scorer exactly once, in order, and each is bit-identical
// to the same four fields of EvaluateBatch's owned Result: on a miss,
// for a design repeated inside one batch, and on a hit (the same batch
// scored a second time, which must evaluate nothing). Covers a plan
// without softmax, one whose AutoSoftmax keeps two variants alive
// (bert-128) and a KV-holding decode plan, under every option set.
func TestScoreBatchMatchesEvaluateBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, model := range []string{"efficientnet-b0", "bert-128", "gpt2-decode-1024"} {
		for optName, opts := range planOptionSets() {
			label := model + "/" + optName
			plan, err := Compile(models.MustBuild(model, 8), opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			designs := append(randomSweep(rng, 16), planDesigns()...)
			// The first and a middle design come back at the end of the
			// batch: a hit on an entry the same batch filled.
			designs = append(designs, designs[0], designs[len(designs)/2])
			owned, err := plan.EvaluateBatch(designs)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			distinct := map[designKey]bool{}
			for _, cfg := range designs {
				distinct[keyOf(cfg)] = true
			}
			for pass, wantFills := range []int{len(distinct), 0} {
				seen := make([]int, len(designs))
				stop := countFills()
				err := plan.ScoreBatch(designs, func(i int, s Score) {
					seen[i]++
					sameScore(t, fmt.Sprintf("%s pass %d design %d (score vs owned)", label, pass, i), scoreOf(owned[i]), s)
				})
				fills := stop()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if fills != int64(wantFills) {
					t.Errorf("%s pass %d: %d designs evaluated, want %d", label, pass, fills, wantFills)
				}
				for i, n := range seen {
					if n != 1 {
						t.Errorf("%s pass %d: design %d scored %d times", label, pass, i, n)
					}
				}
			}
		}
	}
	bad := arch.FASTLarge().Clone("bad")
	bad.PEsX = 3
	plan, err := Compile(models.MustBuild("efficientnet-b0", 8), FASTOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.ScoreBatch([]*arch.Config{arch.FASTLarge(), bad}, func(int, Score) {
		t.Error("ScoreBatch scored a batch holding an invalid design")
	}); err == nil {
		t.Error("ScoreBatch accepted an invalid design")
	}
}

// TestEvaluateBatchRejectsInvalid: any invalid design fails the whole
// batch with its position in the error.
func TestEvaluateBatchRejectsInvalid(t *testing.T) {
	g := models.MustBuild("efficientnet-b0", 8)
	plan, err := Compile(g, FASTOptions())
	if err != nil {
		t.Fatal(err)
	}
	bad := arch.FASTLarge().Clone("bad")
	bad.PEsX = 3 // not a power of two
	if _, err := plan.EvaluateBatch([]*arch.Config{arch.FASTLarge(), bad}); err == nil {
		t.Fatal("EvaluateBatch accepted an invalid design")
	}
}

// randomSweep draws n random designs from the Table 3 space around the
// FAST platform — the design distribution an optimizer batch feeds
// EvaluateBatch — with heavy parameter sharing between neighbours
// (each design mutates a few coordinates of the previous one).
func randomSweep(rng *rand.Rand, n int) []*arch.Config {
	s := arch.Space{}
	base := arch.FASTLarge()
	dims := s.Dims()
	var idx [arch.NumParams]int
	for d, card := range dims {
		idx[d] = rng.Intn(card)
	}
	out := make([]*arch.Config, n)
	for i := range out {
		out[i] = s.Decode(idx, base)
		out[i].Name = fmt.Sprintf("sweep-%d", i)
		for m := 0; m < 1+rng.Intn(3); m++ {
			d := rng.Intn(arch.NumParams)
			idx[d] = rng.Intn(dims[d])
		}
	}
	return out
}

// TestEvaluateBatchFuzzSweeps fuzzes the factored/batched evaluator over
// random design sweeps: every result must stay bit-identical to the
// frozen pre-split simulator. This is the test that would catch a memo
// keyed too narrowly (a hit returning another design's entry).
func TestEvaluateBatchFuzzSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep is not short")
	}
	rng := rand.New(rand.NewSource(29))
	workloads := []string{"efficientnet-b0", "bert-1024"}
	for _, w := range workloads {
		g := models.MustBuild(w, 8)
		for optName, opts := range planOptionSets() {
			plan, err := Compile(g, opts)
			if err != nil {
				t.Fatalf("%s/%s: Compile: %v", w, optName, err)
			}
			for round := 0; round < 4; round++ {
				sweep := randomSweep(rng, 24)
				batch, err := plan.EvaluateBatch(sweep)
				if err != nil {
					t.Fatalf("%s/%s: EvaluateBatch: %v", w, optName, err)
				}
				for i, cfg := range sweep {
					want, err := referenceSimulate(g, cfg, opts)
					if err != nil {
						t.Fatalf("%s/%s/%s: referenceSimulate: %v", w, optName, cfg.Name, err)
					}
					label := fmt.Sprintf("%s/%s round %d design %d", w, optName, round, i)
					sameResult(t, label, want, batch[i])
				}
			}
		}
	}
}

// TestEvaluateBatchConcurrent hammers one shared Plan from many
// goroutines over overlapping design sweeps, first with EvaluateBatch,
// then with ScoreBatch. The references come from a separate plan. The
// score phase scores half the sweep before the goroutines start, so
// hits on that half race cold fills of the other: every fill, racing
// fills of one design included, must store the reference Score, and
// every Score handed out must equal it. Under -race it proves the memo
// synchronizes correctly.
func TestEvaluateBatchConcurrent(t *testing.T) {
	for _, model := range []string{"efficientnet-b0", "bert-128"} {
		g := models.MustBuild(model, 128)
		ref, err := Compile(g, FASTOptions())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(31))
		sweep := append(randomSweep(rng, 24), planDesigns()...)
		refs, err := ref.EvaluateBatch(sweep)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		want := map[designKey]Score{}
		for i, cfg := range sweep {
			want[keyOf(cfg)] = scoreOf(refs[i])
		}

		plan, err := Compile(g, FASTOptions())
		if err != nil {
			t.Fatal(err)
		}
		hammer(t, model+" evaluate", func(w, round int) error {
			local := rotated(sweep, w)
			got, err := plan.EvaluateBatch(local)
			if err != nil {
				return err
			}
			for i := range got {
				if !reflect.DeepEqual(refs[(i+w*3)%len(sweep)], got[i]) {
					return fmt.Errorf("concurrent batch result %d diverged", i)
				}
			}
			return nil
		})

		scored, err := Compile(g, FASTOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := scored.ScoreBatch(sweep[:len(sweep)/2], func(int, Score) {}); err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		filled := map[designKey]int{}
		restore := OnScoreFill(func(cfg *arch.Config, s Score) {
			// A fill comes straight after its design's evaluation. Taking
			// every shard lock here would deadlock if the evaluating
			// goroutine still held one.
			held := 0
			for i := range scored.scores.shards {
				sh := &scored.scores.shards[i]
				sh.mu.Lock()
				held += len(sh.m)
				sh.mu.Unlock()
			}
			if held == 0 {
				t.Errorf("%s: the warm half of the sweep left no Score", model)
			}
			mu.Lock()
			defer mu.Unlock()
			k := keyOf(cfg)
			filled[k]++
			if s != want[k] {
				t.Errorf("%s: a fill stored %+v for a design whose Score is %+v", model, s, want[k])
			}
		})
		hammer(t, model+" score", func(w, round int) error {
			local := rotated(sweep, w)
			return scored.ScoreBatch(local, func(i int, s Score) {
				if k := keyOf(local[i]); s != want[k] {
					t.Errorf("%s score: worker %d round %d: design %d scored %+v, want %+v", model, w, round, i, s, want[k])
				}
			})
		})
		restore()
		for _, cfg := range sweep[len(sweep)/2:] {
			warm := false
			for _, c := range sweep[:len(sweep)/2] {
				warm = warm || keyOf(c) == keyOf(cfg)
			}
			if !warm && filled[keyOf(cfg)] == 0 {
				t.Errorf("%s: cold design %s was never filled", model, cfg.Name)
			}
		}
	}
}

// TestScoreSharedTimingConcurrent scores, from 8 goroutines on one cold
// plan, 16 FAST-Large designs that differ only in L1 sizes and L1
// configuration and so share one timing key: bert-128 on the search
// plan (both softmax variants) and efficientnet-b0 on a plan whose
// fusion is the exact solve. Racing misses on the key fill its latency
// and fusion entry once; every Score must equal a fresh plan's Result's.
// Under -race it proves the timing memo synchronizes correctly.
func TestScoreSharedTimingConcurrent(t *testing.T) {
	exact := FASTOptions()
	exact.Fusion.GreedyOnly = false
	var designs []*arch.Config
	for _, l1 := range []arch.BufferConfig{arch.Shared, arch.Private} {
		for _, in := range []int64{8, 64} {
			for _, w := range []int64{8, 64} {
				for _, out := range []int64{8, 64} {
					cfg := arch.FASTLarge()
					cfg.L1Config, cfg.L1InputKiB, cfg.L1WeightKiB, cfg.L1OutputKiB = l1, in, w, out
					designs = append(designs, cfg)
				}
			}
		}
	}
	for _, tc := range []struct {
		model string
		opts  Options
	}{{"bert-128", FASTOptions()}, {"efficientnet-b0", exact}} {
		g := models.MustBuild(tc.model, 8)
		compile := func() *Plan {
			p, err := Compile(g, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		plan := compile()
		key, _ := timingKeyOn(plan, designs[0])
		want := make([]Score, len(designs))
		for i, cfg := range designs {
			if k, ok := timingKeyOn(plan, cfg); !ok || k != key {
				t.Fatalf("%s: %s does not share FAST-Large's timing key", tc.model, cfg)
			}
			r, err := compile().Evaluate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = scoreOf(r)
		}
		hammer(t, tc.model+" score", func(w, round int) error {
			local := rotated(designs, w)
			return plan.ScoreBatch(local, func(i int, s Score) {
				if k := (i + w*3) % len(designs); s != want[k] {
					t.Errorf("%s: worker %d round %d: %s scored %+v, want %+v", tc.model, w, round, local[i], s, want[k])
				}
			})
		})
	}
}

// rotated is worker w's view of a sweep: the workers' batches overlap
// but differ in order.
func rotated(sweep []*arch.Config, w int) []*arch.Config {
	local := make([]*arch.Config, len(sweep))
	for i := range sweep {
		local[i] = sweep[(i+w*3)%len(sweep)]
	}
	return local
}

// hammer runs step from 8 goroutines, 3 rounds each, and reports every
// error it returns.
func hammer(t *testing.T, label string, step func(w, round int) error) {
	t.Helper()
	const goroutines, rounds = 8, 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				if err := step(w, round); err != nil {
					errs <- fmt.Errorf("%s worker %d round %d: %v", label, w, round, err)
					return
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
