package sim_test

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"

	"fast/internal/arch"
	"fast/internal/core"
	"fast/internal/power"
	"fast/internal/search"
	"fast/internal/sim"
)

// TestRerunScoresFromMemo runs one study twice in one process, as
// fast-serve re-runs it against its shared plan cache: serve_fsync's
// resnet50 study (256 trials, batch size 8, seed 0). The two
// transcripts must be byte-identical, and the second run must evaluate
// no design on the search plan: every design it scores is a hit on the
// Score the first run memoized there.
func TestRerunScoresFromMemo(t *testing.T) {
	// Start from a search plan no other test, and no earlier -count run
	// of this one, has compiled, as a freshly started daemon does: the
	// study evaluates through a dispatcher that builds its evaluator
	// under a power model of this run's own, and so a plan-cache key of
	// its own.
	pm := *power.Default()
	pm.FixedPowerW += float64(reruns.Add(1)) / 1024
	own := core.WithDispatch(func(_ context.Context, spec core.EvalSpec, _ search.BatchObjective) search.BatchObjective {
		spec.SimOptions.PowerModel = &pm
		ev, err := core.BuildBatchEvaluator(spec)
		if err != nil {
			t.Fatal(err) // Run calls the dispatcher on the test goroutine
		}
		return ev
	})
	var fills atomic.Int64
	restore := sim.OnScoreFill(func(*arch.Config, sim.Score) { fills.Add(1) })
	defer restore()
	var transcripts [2][]byte
	var filled [2]int64
	for run := range transcripts {
		st := core.Study{Workloads: []string{"resnet50"}, Objective: core.PerfPerTDP, Trials: 256, Seed: 0}
		before := fills.Load()
		res, err := st.Run(context.Background(), core.WithBatchSize(8), core.WithParallelism(2), own)
		if err != nil {
			t.Fatal(err)
		}
		filled[run] = fills.Load() - before
		if transcripts[run], err = json.Marshal(res.Search.History); err != nil {
			t.Fatal(err)
		}
	}
	if string(transcripts[0]) != string(transcripts[1]) {
		t.Error("the re-run's transcript differs from the first run's")
	}
	if filled[0] == 0 {
		t.Fatal("the first run evaluated no design: the plan was warm before the test")
	}
	if filled[1] != 0 {
		t.Errorf("the re-run evaluated %d designs on the search plan (the first run %d), want 0", filled[1], filled[0])
	}
}

// reruns counts the runs of TestRerunScoresFromMemo in this process.
var reruns atomic.Int64
