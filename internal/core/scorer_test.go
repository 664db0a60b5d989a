package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"fast/internal/arch"
	"fast/internal/search"
)

// scoredBytes builds the perf-per-tdp scorer for one workload, warms it
// (plan compiled, pooled tables sized) and returns the heap bytes and
// allocations per design that reaches the simulator when batches of
// designs the plan has never scored go through it, plus the plan's
// region count. Each such design misses the plan's Score memo, so it is
// evaluated into the scorer's reused per-region tables.
func scoredBytes(t *testing.T, workload string) (bytes, allocs float64, regions int) {
	t.Helper()
	st := Study{Workloads: []string{workload}, Objective: PerfPerTDP}
	sp := st.evalSpec()
	score, err := BuildBatchEvaluator(sp)
	if err != nil {
		t.Fatal(err)
	}
	// runs+2 batches of designs no other batch holds, each a mutation
	// chain around FAST-Large that keeps its native batch (one plan):
	// one to warm up, one for AllocsPerRun's untimed warm-up call, runs
	// measured.
	const runs = 50
	rng := rand.New(rand.NewSource(19))
	dims := arch.Space{}.Dims()
	seen := map[[arch.NumParams]int]bool{}
	batches := make([][][arch.NumParams]int, runs+2)
	for b := range batches {
		idx := arch.Space{}.Encode(arch.FASTLarge())
		for len(batches[b]) < 24 {
			if d := rng.Intn(arch.NumParams); d != arch.PNativeBatch {
				idx[d] = rng.Intn(dims[d])
			}
			if c := (arch.Space{}).Canonical(idx); !seen[c] {
				seen[c] = true
				batches[b] = append(batches[b], idx)
			}
		}
	}
	scored := func(batches [][][arch.NumParams]int) (n int) {
		for _, batch := range batches {
			for _, idx := range batch {
				cfg := arch.Space{}.Decode(idx, sp.Base)
				bd := sp.SimOptions.PowerModel.Evaluate(cfg)
				if cfg.Validate() == nil && bd.TotalPower() <= sp.Budget.MaxTDPW && bd.TotalArea() <= sp.Budget.MaxAreaMM2 {
					n++
				}
			}
		}
		return n
	}
	if scored(batches[2:]) < runs {
		t.Fatalf("%s: too few designs of the batches reach the simulator", workload)
	}
	score(batches[0])
	plan, err := plans.get(workload, arch.FASTLarge().NativeBatch, sp.SimOptions.Fingerprint(), sp.SimOptions)
	if err != nil {
		t.Fatal(err)
	}
	r, err := plan.Evaluate(arch.FASTLarge())
	if err != nil {
		t.Fatal(err)
	}

	next := 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	perRun := testing.AllocsPerRun(runs, func() {
		score(batches[next])
		next++
	})
	runtime.ReadMemStats(&after)
	bytes = float64(after.TotalAlloc-before.TotalAlloc) / float64(scored(batches[1:]))
	return bytes, perRun * runs / float64(scored(batches[2:])), len(r.Regions)
}

// TestScorerBytesFlatInRegions is the allocation guard on the study
// scorer: over warm plans, the bytes it allocates per scored design
// must not grow with the plan's region count — the per-region stats,
// op shares and fusion slices of each Result are reused across designs.
// Allocated per design they cost about 160 B per region: 45 kB for each
// efficientnet-b7 design, against some 600 B for everything else.
func TestScorerBytesFlatInRegions(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled memory at random")
	}
	smallBytes, smallAllocs, small := scoredBytes(t, "efficientnet-b0")
	bigBytes, bigAllocs, big := scoredBytes(t, "efficientnet-b7")
	if big <= 2*small {
		t.Fatalf("efficientnet-b7 has %d regions, efficientnet-b0 %d: too close to tell scaling", big, small)
	}
	perRegion := (bigBytes - smallBytes) / float64(big-small)
	t.Logf("per scored design: efficientnet-b0 (%d regions) %.0f B / %.1f allocs, efficientnet-b7 (%d regions) %.0f B / %.1f allocs; %.2f B per extra region",
		small, smallBytes, smallAllocs, big, bigBytes, bigAllocs, perRegion)
	if perRegion > 8 {
		t.Errorf("the scorer allocates %.1f B per design per extra region: per-region tables are allocated per design", perRegion)
	}
}

// TestScorerConcurrentHammer runs one study scorer from several
// goroutines at once over overlapping batches of one shared plan per
// workload — the Runner's shape at Parallelism > 1 — and holds every
// concurrent Evaluation to a serial one. bert-128 keeps two softmax
// variants' Results alive per design; under -race this proves the
// reused per-region tables are never shared between scorers. In "warm"
// every design's Score is memoized before the goroutines start; in
// "cold" a third are, so hits race cold fills of the rest.
func TestScorerConcurrentHammer(t *testing.T) {
	st := Study{Workloads: []string{"efficientnet-b0", "bert-128"}, Objectives: []ObjectiveKind{Perf, Area}}
	batch := probeSet()
	t.Run("warm", func(t *testing.T) {
		score, err := BuildBatchEvaluator(st.evalSpec())
		if err != nil {
			t.Fatal(err)
		}
		hammerScorer(t, score, batch, score(batch))
	})
	t.Run("cold", func(t *testing.T) {
		// A base clock no other test, and no earlier -count run of this
		// one, uses: every design is new to the shared plans, and the
		// references (Plan.Evaluate) memoize no Score.
		sp := st.evalSpec()
		sp.Base.ClockGHz += float64(coldHammers.Add(1)) / 1024
		score, err := BuildBatchEvaluator(sp)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]search.Evaluation, len(batch))
		for i, idx := range batch {
			want[i] = referenceEvaluate(sp, st.Objectives, idx)
		}
		score(batch[:len(batch)/3])
		hammerScorer(t, score, batch, want)
	})
}

// coldHammers counts the cold hammer runs of this process.
var coldHammers atomic.Int64

// hammerScorer scores rotated views of batch from four goroutines,
// three rounds each, and holds every Evaluation to want's.
func hammerScorer(t *testing.T, score search.BatchObjective, batch [][arch.NumParams]int, want []search.Evaluation) {
	feasible := 0
	for _, ev := range want {
		if ev.Feasible {
			feasible++
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible design: the hammer compares nothing")
	}

	const goroutines, rounds = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Rotated views: the batches overlap but are walked in
			// different orders and split at different points.
			local := make([][arch.NumParams]int, len(batch))
			exp := make([]search.Evaluation, len(batch))
			for i := range batch {
				j := (i + 7*w) % len(batch)
				local[i], exp[i] = batch[j], want[j]
			}
			for round := 0; round < rounds; round++ {
				lo := (w + round) % 5
				got := score(local[lo:])
				for i, ev := range got {
					if !ev.Equal(exp[lo+i]) {
						errs <- fmt.Errorf("worker %d round %d: point %d scored %+v, serially %+v", w, round, lo+i, ev, exp[lo+i])
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
