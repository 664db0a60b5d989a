package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
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

// TestScoreBatchMatchesEvaluateBatch: ScoreBatch hands each design's
// Result to the scorer exactly once, and each — written into tables the
// previous design used — is deep-equal to EvaluateBatch's owned Result:
// region stats, op shares and fusion solution included. Covers a plan
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
			owned, err := plan.EvaluateBatch(designs)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			seen := make([]int, len(designs))
			if err := plan.ScoreBatch(designs, func(i int, r *Result) {
				seen[i]++
				sameResult(t, fmt.Sprintf("%s design %d (score vs owned)", label, i), owned[i], r)
			}); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for i, n := range seen {
				if n != 1 {
					t.Errorf("%s: design %d scored %d times", label, i, n)
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
	if err := plan.ScoreBatch([]*arch.Config{arch.FASTLarge(), bad}, func(int, *Result) {
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

// TestEvaluateBatchConcurrent hammers one shared Plan with EvaluateBatch
// from many goroutines over overlapping design sweeps. The references
// come from a separate plan, so the goroutines race to fill cold memo
// entries; on bert-128 both softmax variants' fusion slots of one entry
// are filled concurrently. Under -race it proves the memo synchronizes
// correctly, and every concurrent result must still be bit-identical to
// its reference.
func TestEvaluateBatchConcurrent(t *testing.T) {
	for _, model := range []string{"efficientnet-b0", "bert-128"} {
		g := models.MustBuild(model, 128)
		ref, err := Compile(g, FASTOptions())
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Compile(g, FASTOptions())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(31))
		sweep := append(randomSweep(rng, 24), planDesigns()...)
		refs, err := ref.EvaluateBatch(sweep)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}

		const goroutines = 8
		const rounds = 3
		var wg sync.WaitGroup
		errs := make(chan error, goroutines*rounds)
		for w := 0; w < goroutines; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Each worker walks a rotated view of the sweep so batches
				// overlap but differ in order.
				local := make([]*arch.Config, len(sweep))
				want := make([]*Result, len(sweep))
				for i := range sweep {
					j := (i + w*3) % len(sweep)
					local[i], want[i] = sweep[j], refs[j]
				}
				for round := 0; round < rounds; round++ {
					got, err := plan.EvaluateBatch(local)
					if err != nil {
						errs <- fmt.Errorf("%s worker %d: %v", model, w, err)
						return
					}
					for i := range got {
						if !reflect.DeepEqual(want[i], got[i]) {
							errs <- fmt.Errorf("%s worker %d: concurrent batch result %d diverged", model, w, i)
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
}
