package fusion_test

import (
	"reflect"
	"sync/atomic"
	"testing"

	"fast/internal/arch"
	"fast/internal/fusion"
	"fast/internal/models"
	"fast/internal/sim"
)

// TestExactPlanSolvesOncePerTiming evaluates FAST-Large and a copy with
// 64 KiB L1 scratchpads (Table 6's "64KB L1" row), which map every
// problem alike and so share a timing, on one plan whose fusion is the
// exact solve. The plan must solve efficientnet-b0's single fusion
// instance once for both designs, and each Result must equal a fresh
// plan's, field for field.
func TestExactPlanSolvesOncePerTiming(t *testing.T) {
	g := models.MustBuild("efficientnet-b0", 8)
	opts := sim.FASTOptions()
	opts.Fusion.GreedyOnly = false
	large := arch.FASTLarge()
	wide := large.Clone("fl-64kl1")
	wide.L1InputKiB, wide.L1WeightKiB, wide.L1OutputKiB = 64, 64, 64

	shared, err := sim.Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	var solves atomic.Int64
	restore := fusion.CaptureSolves(func([]fusion.RegionCost, []bool, int64) { solves.Add(1) })
	got := make([]*sim.Result, 2)
	for i, cfg := range []*arch.Config{large, wide} {
		if got[i], err = shared.Evaluate(cfg); err != nil {
			restore()
			t.Fatal(err)
		}
	}
	restore()
	if n := solves.Load(); n != 1 {
		t.Errorf("the plan solved %d fusion instances for two designs with one timing, want 1", n)
	}
	for i, cfg := range []*arch.Config{large, wide} {
		fresh, err := sim.Compile(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got[i]) {
			t.Errorf("%s: the shared plan's Result differs from a fresh plan's", cfg.Name)
		}
	}
	if got[0].Fusion.Method != got[1].Fusion.Method || got[0].LatencySec != got[1].LatencySec {
		t.Errorf("designs with one timing report %s at %v s and %s at %v s", got[0].Fusion.Method, got[0].LatencySec, got[1].Fusion.Method, got[1].LatencySec)
	}
}
