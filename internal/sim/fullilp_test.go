package sim

// The exact-ILP fusion evaluate path under concurrency. The sparse
// solve's differential against the dense reference on these models'
// instances lives in internal/ilp (fusiondiff_test.go).

import (
	"sync"
	"testing"

	"fast/internal/arch"
	"fast/internal/models"
)

// TestParallelFullILPEvaluateRace hammers the parallel full-ILP paths
// on one shared plan: concurrent Evaluates with AutoSoftmax (each
// spawning the concurrent softmax-variant goroutine, each variant an
// exact ILP through the pooled revised-simplex state) over four designs,
// each evaluated by four goroutines, so some fill a design's memo entry
// while others wait on it or hit it. Run under -race in CI.
func TestParallelFullILPEvaluateRace(t *testing.T) {
	g := models.MustBuild("bert-128", arch.FASTLarge().NativeBatch)
	opts := FASTOptions()
	opts.Fusion.GreedyOnly = false
	plan, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]*arch.Config, 4)
	for i := range cfgs {
		c := arch.FASTLarge().Clone("race")
		c.ClockGHz += float64(i) * 0.001 // distinct memo keys
		cfgs[i] = c
	}
	var wg sync.WaitGroup
	results := make([]*Result, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r, err := plan.Evaluate(cfgs[w%len(cfgs)])
			if err != nil {
				t.Error(err)
				return
			}
			results[w] = r
		}(w)
	}
	wg.Wait()
	for w, r := range results {
		if r == nil {
			continue
		}
		ref := results[w%len(cfgs)]
		if ref != nil && (r.LatencySec != ref.LatencySec || r.Fusion.Total != ref.Fusion.Total) {
			t.Errorf("worker %d diverged from worker %d on the same design", w, w%len(cfgs))
		}
	}
}
