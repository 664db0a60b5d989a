package ilp_test

// Full-ILP differentials: the sparse solver against the frozen
// dense-tableau reference on the problems the fusion pass poses, captured
// as they enter the solver, warm start included.
//
// The dense solver is only a sound oracle where it proves optimality
// without hitting its per-LP iteration cap, so the reference matrix
// below is the subset of reference instances where it does (measured;
// the excluded instances — efficientnet-b5..b7 and the OCR recognizer
// on the TPU datapaths among others — take the dense core minutes per
// solve or trip its cap, which silently weakens its bounds). The dense
// tableau's absolute pivot tolerances can also return a provably
// suboptimal "optimal" on fusion-scaled coefficients (costs ~1e-6
// against byte columns ~1e8) — TestSparseFusionShapedExact pins that
// against brute force — so where the two optima differ, only a sparse
// objective *above* the dense one fails.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"fast/internal/arch"
	"fast/internal/fusion"
	"fast/internal/ilp"
)

// captured is one problem as it entered the solver.
type captured struct {
	p    ilp.Problem
	warm []float64
}

// captureExact runs fn and returns every problem it hands the solver.
func captureExact(fn func()) []captured {
	var mu sync.Mutex
	var got []captured
	restore := ilp.CaptureProblems(func(p ilp.Problem, warm []float64) {
		mu.Lock()
		got = append(got, captured{p, warm})
		mu.Unlock()
	})
	defer restore()
	fn()
	return got
}

// solveBoth solves one captured problem with the sparse solver and with
// the dense reference, from its warm start and without a node budget.
func solveBoth(t testing.TB, c captured) (sparse, dense ilp.Result) {
	t.Helper()
	o := ilp.Options{WarmStart: c.warm}
	sparse, err := ilp.Solve(c.p, o)
	if err != nil {
		t.Fatal(err)
	}
	if dense, err = ilp.SolveDense(c.p, o); err != nil {
		t.Fatal(err)
	}
	return sparse, dense
}

// sameBinaries reports whether two points agree on every binary column.
func sameBinaries(p ilp.Problem, x, y []float64) bool {
	for j, bin := range p.Binary {
		if bin && x[j] != y[j] {
			return false
		}
	}
	return true
}

// checkNotWorse fails when the sparse optimum lies above the dense one,
// or when both pick the same binaries and still disagree on the
// objective the continuous columns complete. It reports whether the
// binaries agree.
func checkNotWorse(t testing.TB, label string, p ilp.Problem, sp, de ilp.Result) (same bool) {
	t.Helper()
	tol := 1e-9 * (1 + math.Abs(de.Objective))
	if sameBinaries(p, sp.X, de.X) {
		if math.Abs(sp.Objective-de.Objective) > tol {
			t.Errorf("%s: identical binaries, diverging objectives %.17g vs %.17g", label, sp.Objective, de.Objective)
		}
		return true
	}
	if sp.Objective > de.Objective+1e-12*(1+math.Abs(de.Objective)) {
		t.Errorf("%s: sparse objective %.15g worse than dense %.15g", label, sp.Objective, de.Objective)
	} else {
		t.Logf("%s: binaries differ; sparse objective %.15g ≤ dense %.15g (dense tolerance artifact)", label, sp.Objective, de.Objective)
	}
	return false
}

// TestSparseILPMatchesDenseOnReferenceInstances solves every fusion
// problem of the reference models × designs below with both solvers:
// both must prove optimality, and the sparse optimum must not be worse.
func TestSparseILPMatchesDenseOnReferenceInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("full-ILP differential sweep is not short")
	}
	all := []*arch.Config{arch.TPUv3(), arch.DieShrunkTPUv3(), arch.FASTLarge(), arch.FASTSmall()}
	fastOnly := []*arch.Config{arch.FASTLarge(), arch.FASTSmall()}
	suite := []struct {
		model string
		cfgs  []*arch.Config
	}{
		{"efficientnet-b0", all},
		{"efficientnet-b1", all},
		{"efficientnet-b2", all},
		{"efficientnet-b3", all},
		{"mobilenetv2", all},
		{"resnet50", all},
		{"bert-1024", fastOnly},
		{"bert-128", []*arch.Config{arch.FASTLarge()}},
		{"ocr-rpn", fastOnly},
	}
	routed := false // some instance's node count tells the two solvers apart
	problems := 0
	for _, tc := range suite {
		for _, cfg := range tc.cfgs {
			ins := captureExact(func() { exactReport(t, tc.model, cfg) })
			if len(ins) == 0 {
				t.Fatalf("%s/%s: no fusion problem", tc.model, cfg.Name)
			}
			problems += len(ins)
			for k, in := range ins {
				label := fmt.Sprintf("%s/%s#%d", tc.model, cfg.Name, k)
				sp, de := solveBoth(t, in)
				routed = routed || sp.Nodes != de.Nodes
				if !sp.Optimal {
					t.Fatalf("%s: sparse solve %+v, want proven optimality", label, sp)
				}
				if !de.Optimal {
					t.Fatalf("%s: dense solve %+v — instance no longer dense-sound, update the matrix", label, de)
				}
				checkNotWorse(t, label, in.p, sp, de)
			}
		}
	}
	// One problem a pair, two for bert's softmax variants.
	if problems != 32 {
		t.Errorf("%d problems captured, want the matrix's 32", problems)
	}
	if !routed {
		t.Error("sparse and dense node counts agree on every instance: the dense solver never ran")
	}
}

// randomRegions draws a random fusion instance: regions with random
// compute and DRAM times, weights, edges up to 6 regions back and base
// working sets, and the edges usable within a random window of 1–6.
func randomRegions(rng *rand.Rand, n int) ([]fusion.RegionCost, []bool) {
	regions := make([]fusion.RegionCost, n)
	for i := range regions {
		compute := rng.Float64() * 1e-4
		dram := compute * (0.5 + 2*rng.Float64())
		r := fusion.RegionCost{
			TMin:            compute,
			TMax:            math.Max(compute, dram),
			DWeight:         rng.Int63n(1 << 22),
			PinnableWeights: rng.Intn(4) != 0,
			EdgeProducer:    -1,
		}
		r.TWeight = float64(r.DWeight) * 1e-11
		if i > 0 && rng.Intn(3) != 0 {
			r.EdgeProducer = i - 1 - rng.Intn(min(i, 6))
			r.EdgeBytes = rng.Int63n(1 << 22)
			r.EdgeResidentBytes = r.EdgeBytes / int64(1+rng.Intn(8))
			r.TEdgeRead = float64(r.EdgeBytes) * 1e-11
			if rng.Intn(2) == 0 {
				r.TEdgeWrite = float64(r.EdgeBytes) * 1e-11
			}
		}
		if rng.Intn(8) == 0 {
			r.BaseGM = rng.Int63n(1 << 20)
		}
		regions[i] = r
	}
	w := 1 + rng.Intn(6)
	usable := make([]bool, n)
	for i, r := range regions {
		p := r.EdgeProducer
		usable[i] = p >= 0 && i-p >= 1 && i-p <= w
	}
	return regions, usable
}

// TestSparseILPNeverWorseThanDense solves the problems of randomized
// fusion instances with both solvers. The sparse optimum must never lie
// above the dense one (the dense tableau's absolute tolerances can
// themselves lose exact optimality on fusion-scaled coefficients, so
// the comparison is one-sided), both must agree where they pick the
// same binaries, and the placement the fusion pass resolves must fit.
func TestSparseILPNeverWorseThanDense(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	identical := 0
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(14)
		regions, usable := randomRegions(rng, n)
		capacity := rng.Int63n(1 << 24)
		var sol fusion.Solution
		ins := captureExact(func() {
			var asn fusion.Assignment
			fusion.SolvePlanned(&asn, regions, usable, capacity, fusion.Options{})
			fusion.ResolvePlanned(&sol, regions, capacity, asn)
		})
		if sol.Method == "disabled" || len(ins) == 0 {
			continue
		}
		// An empty placement still occupies the scheduler's base working
		// tiles, so the peak floor is max BaseGM even above capacity.
		var basePeak int64
		for _, r := range regions {
			basePeak = max(basePeak, r.BaseGM)
		}
		if limit := max(capacity, basePeak); sol.GMUsedPeak > limit {
			t.Fatalf("trial %d: peak %d exceeds %d", trial, sol.GMUsedPeak, limit)
		}
		sp, de := solveBoth(t, ins[0])
		if sp.Feasible != de.Feasible {
			t.Fatalf("trial %d: feasible sparse=%v dense=%v", trial, sp.Feasible, de.Feasible)
		}
		if !sp.Optimal || !de.Optimal {
			continue
		}
		if checkNotWorse(t, fmt.Sprintf("trial %d", trial), ins[0].p, sp, de) {
			identical++
		}
	}
	if identical == 0 {
		t.Error("solvers never agreed on an assignment — differential has no teeth")
	}
}

// BenchmarkFullILPDense is the dense-tableau half of the root
// package's BenchmarkFullILPEvaluate: the fusion problems of the same
// three ILP-dominated reference instances, each solved to proven
// optimality by the frozen dense reference solver from the greedy warm
// start. nodes/op reports branch-and-bound nodes per iteration across
// the problems.
func BenchmarkFullILPDense(b *testing.B) {
	var ins []captured
	for _, model := range []string{"ocr-rpn", "resnet50", "bert-1024"} {
		ins = append(ins, captureExact(func() { exactReport(b, model, arch.FASTSmall()) })...)
	}
	var nodes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range ins {
			// No node budget: the solve must prove optimality, so ns/op
			// times full exact solves, not incumbent cutoffs.
			r, err := ilp.SolveDense(in.p, ilp.Options{WarmStart: in.warm})
			if err != nil || !r.Optimal {
				b.Fatalf("dense solve %+v (%v), want proven optimality", r, err)
			}
			nodes += int64(r.Nodes)
		}
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}
