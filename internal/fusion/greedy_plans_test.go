package fusion_test

// The greedy on the instances the search loop actually feeds it: the
// fuzzers in reference_test.go stop at 40 synthetic regions and their
// oracle has no KV-cache class, so here every registry model the
// harness reports on is compiled, evaluated on the reference designs at
// several Global-Memory sizes, and each cost table that reaches the
// fusion solve is replayed through the production greedy and its frozen
// lazy-heap predecessor at several capacities.

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"fast/internal/arch"
	"fast/internal/fusion"
	"fast/internal/models"
	"fast/internal/sim"
)

// planModels are the nine models of the harness's search and report
// workloads; gpt2-decode-1024 brings the KV-cache holds.
var planModels = []string{
	"efficientnet-b0", "efficientnet-b7", "resnet50", "mobilenetv2", "ocr-rpn",
	"ocr-recognizer", "bert-128", "bert-1024", "gpt2-decode-1024",
}

// instance is one captured fusion solve.
type instance struct {
	regions  []fusion.RegionCost
	usable   []bool
	capacity int64
}

// captureInstances evaluates model on each design with the search-loop
// stack (greedy fusion, automatic softmax) and returns every cost table
// that reached the fusion solve.
func captureInstances(tb testing.TB, model string, designs []*arch.Config) []instance {
	tb.Helper()
	var mu sync.Mutex
	var got []instance
	restore := fusion.CaptureSolves(func(regions []fusion.RegionCost, usable []bool, capacity int64) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, instance{slices.Clone(regions), slices.Clone(usable), capacity})
	})
	defer restore()
	plans := map[int64]*sim.Plan{}
	for _, cfg := range designs {
		plan := plans[cfg.NativeBatch]
		if plan == nil {
			g, err := models.Build(model, cfg.NativeBatch)
			if err != nil {
				tb.Fatal(err)
			}
			if plan, err = sim.Compile(g, sim.FASTOptions()); err != nil {
				tb.Fatal(err)
			}
			plans[cfg.NativeBatch] = plan
		}
		if _, err := plan.Evaluate(cfg); err != nil {
			tb.Fatal(err)
		}
	}
	return got
}

// TestGreedyMatchesLazyOnCompiledPlans holds the indexed greedy to the
// lazy-heap one, flag for flag, on real cost tables: four reference
// designs × four GM sizes per model, each table replayed at its own
// capacity and at 1/64, 1/8 and 4× of it (starved to slack).
func TestGreedyMatchesLazyOnCompiledPlans(t *testing.T) {
	var instances, kv, placed int
	for _, model := range planModels {
		var designs []*arch.Config
		for _, name := range []string{"tpu-v3", "fast-large", "fast-small", "fast-decode"} {
			for _, gm := range []int64{0, 4, 32, 128} {
				cfg := arch.ByName(name).Clone(name)
				if gm > 0 {
					cfg.GlobalMiB = gm
				}
				designs = append(designs, cfg)
			}
		}
		for _, in := range captureInstances(t, model, designs) {
			for _, capacity := range []int64{in.capacity, in.capacity / 64, in.capacity / 8, in.capacity * 4} {
				wantPin, wantKeep, wantHold := fusion.LazyGreedy(in.regions, in.usable, capacity)
				pin, keep, hold := fusion.Greedy(in.regions, in.usable, capacity)
				if !reflect.DeepEqual(pin, wantPin) || !reflect.DeepEqual(keep, wantKeep) || !reflect.DeepEqual(hold, wantHold) {
					t.Fatalf("%s (%d regions, capacity %d): indexed greedy diverged from the lazy heap", model, len(in.regions), capacity)
				}
				instances++
				if slices.Contains(hold, true) {
					kv++
				}
				if slices.Contains(pin, true) || slices.Contains(keep, true) {
					placed++
				}
			}
		}
	}
	// The differential has teeth only if it saw real instances, KV holds
	// among them, and placements.
	if instances < 500 || kv == 0 || placed < instances/2 {
		t.Fatalf("%d instances, %d with KV holds, %d with placements: too few to hold the claim", instances, kv, placed)
	}
	t.Logf("%d instances, %d with KV holds, %d with placements", instances, kv, placed)
}

// BenchmarkGreedy times the greedy on the cost tables the search loop
// feeds it for efficientnet-b7 on FAST-Large (the largest encoder plan)
// and gpt2-decode-1024 on FAST-Decode (KV holds).
func BenchmarkGreedy(b *testing.B) {
	for _, tc := range []struct{ model, design string }{
		{"efficientnet-b7", "fast-large"},
		{"gpt2-decode-1024", "fast-decode"},
	} {
		b.Run(tc.model, func(b *testing.B) {
			in := captureInstances(b, tc.model, []*arch.Config{arch.ByName(tc.design)})[0]
			n := len(in.regions)
			pin, keep, hold := make([]bool, n), make([]bool, n), make([]bool, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(pin)
				clear(keep)
				clear(hold)
				fusion.GreedyInto(in.regions, in.usable, in.capacity, pin, keep, hold)
			}
		})
	}
}
