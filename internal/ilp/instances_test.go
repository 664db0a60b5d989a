package ilp_test

// Tests on real fusion instances. They live in the external test
// package because the instances come from the simulator, which imports
// ilp.

import (
	"runtime"
	"sync"
	"testing"

	"fast/internal/arch"
	"fast/internal/ilp"
	"fast/internal/models"
	"fast/internal/sim"
)

// exactReport simulates model on cfg with the exact fusion solve on, as
// fast-sim does, under the default node budget.
func exactReport(t testing.TB, model string, cfg *arch.Config) *sim.Result {
	t.Helper()
	g, err := models.Build(model, cfg.NativeBatch)
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.FASTOptions()
	opts.Fusion.GreedyOnly = false
	r, err := sim.Simulate(g, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestKernelsMatchDenseOnFusionInstances holds the sparse kernels to
// the frozen dense LU, bit for bit, on bases of the problems the fusion
// pass really builds — including efficientnet-b7's, the largest
// (m=548), whose capacity rows put ~140 non-zeros in a row, and table6's
// efficientnet-b7 cell with 16 MiB of Global Memory, the stall-phase
// solve that dominates report_exact.
func TestKernelsMatchDenseOnFusionInstances(t *testing.T) {
	gm16 := arch.FASTLarge().Clone("fl-16mb")
	gm16.GlobalMiB = 16
	for _, tc := range []struct {
		name, model string
		cfg         *arch.Config
	}{
		{"ocr-rpn/fast-small", "ocr-rpn", arch.ByName("fast-small")},
		{"bert-128/fast-small", "bert-128", arch.ByName("fast-small")},
		{"efficientnet-b7/fast-large", "efficientnet-b7", arch.ByName("fast-large")},
		{"efficientnet-b7/fast-large-16MiB", "efficientnet-b7", gm16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A report solves its softmax variants side by side.
			var mu sync.Mutex
			var problems []ilp.Problem
			restore := ilp.CaptureProblems(func(p ilp.Problem, _ []float64) {
				mu.Lock()
				problems = append(problems, p)
				mu.Unlock()
			})
			exactReport(t, tc.model, tc.cfg)
			restore()
			if len(problems) == 0 {
				t.Fatal("the report ran no exact solve")
			}
			for i, p := range problems {
				ilp.CheckKernelsOnProblem(t, p, int64(i))
			}
		})
	}
}

// TestStateReuseMatchesFresh runs one pooled-style solver state through
// problems whose shapes change: efficientnet-b7's fusion ILPs on
// FAST-Large (548 rows, 76,723 non-zeros, every capacity row listing
// every pin), ocr-rpn's on FAST-Small, small random ones in between,
// then the fusion ILPs again. Each result must equal a fresh state's,
// bit for bit, and the state must let go of the caller's rows.
func TestStateReuseMatchesFresh(t *testing.T) {
	var mu sync.Mutex
	var problems []ilp.Problem
	restore := ilp.CaptureProblems(func(p ilp.Problem, _ []float64) {
		mu.Lock()
		problems = append(problems, p)
		mu.Unlock()
	})
	exactReport(t, "efficientnet-b7", arch.ByName("fast-large"))
	exactReport(t, "ocr-rpn", arch.ByName("fast-small"))
	restore()
	if len(problems) < 2 {
		t.Fatalf("the reports ran %d exact solves, want at least 2", len(problems))
	}
	ilp.CheckStateReuse(t, problems, 1)
}

// TestPivotSweepsOnStallInstances runs the sweep differentials
// (checkPivot) at every pivot of the two solves that run to the stall
// limit on their greedy warm start — table6's efficientnet-b7 cell with
// 16 MiB of Global Memory and report_hard's efficientnet-b0 seed-9
// winner — to the default limit's 16,384 nodes, where those solves
// stop.
func TestPivotSweepsOnStallInstances(t *testing.T) {
	hard, err := arch.LoadFile("../../cmd/fast-bench/testdata/b0_seed9_winner.json")
	if err != nil {
		t.Fatal(err)
	}
	gm16 := arch.FASTLarge().Clone("fl-16mb")
	gm16.GlobalMiB = 16
	for _, tc := range []struct {
		name, model string
		cfg         *arch.Config
	}{
		{"report_hard", "efficientnet-b0", hard},
		{"table6_b7_16MiB", "efficientnet-b7", gm16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			restore := ilp.CheckEveryPivot()
			r := exactReport(t, tc.model, tc.cfg)
			pivots, err := restore()
			if err != nil {
				t.Fatal(err)
			}
			if r.Fusion.Nodes != 16384 {
				t.Fatalf("solve ended %s after %d nodes, want the stall limit at 16384", r.Fusion.Method, r.Fusion.Nodes)
			}
			t.Logf("%d pivots checked", pivots)
		})
	}
}

// TestOpenNodeBytes is the memory guard for branch-and-bound: on the
// efficientnet-b0 seed-9 winner (report_hard's instance, never proven
// inside any budget the harness sets) the search is cut at a fixed node
// count and the heap bytes that dropping the open frontier frees, per
// open node, must stay under 160 — a path + basis + bitset copy per node
// was ~4 KB. A larger node budget turns into frontier; this bound is
// what keeps that from becoming peak RSS.
func TestOpenNodeBytes(t *testing.T) {
	cfg, err := arch.LoadFile("../../cmd/fast-bench/testdata/b0_seed9_winner.json")
	if err != nil {
		t.Fatal(err)
	}
	// efficientnet has no softmax: the report poses one problem.
	var p ilp.Problem
	var warm []float64
	capture := ilp.CaptureProblems(func(q ilp.Problem, w []float64) { p, warm = q, w })
	exactReport(t, "efficientnet-b0", cfg)
	capture()

	const cut = 20000
	var solves, open int
	var freed uint64
	restore := ilp.AtMaxNodes(func(n int, release func()) {
		solves++
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		release()
		runtime.GC()
		runtime.ReadMemStats(&after)
		open, freed = n, before.HeapAlloc-after.HeapAlloc
	})
	defer restore()
	r, err := ilp.Solve(p, ilp.Options{WarmStart: warm, MaxNodes: cut})
	if err != nil || r.Nodes != cut || r.Optimal {
		t.Fatalf("solve ended after %d nodes (optimal %v, %v); the guard needs the cut-off at %d", r.Nodes, r.Optimal, err, cut)
	}
	if solves != 1 {
		t.Fatalf("%d solves reached the cut-off, want 1", solves)
	}
	if open < cut/10 {
		t.Fatalf("only %d open nodes at the cut-off; too few to measure", open)
	}
	perNode := float64(freed) / float64(open)
	t.Logf("%d open nodes after %d explored: %.1f retained bytes a node", open, cut, perNode)
	if perNode > 160 {
		t.Errorf("an open node retains %.1f bytes, want ≤ 160", perNode)
	}
}

// TestFailedRootRecoversOnServedStudy: the winner of serve_fsync's
// mobilenetv2 seed-2 study (`fast-search -workloads mobilenetv2 -trials
// 256 -seed 2 -save`) poses a fusion problem whose root LP fails
// numerically. Solved again from the slack basis, the root recovers and
// the search proves the greedy warm start optimal, so the study's report
// says "ilp-optimal" from the sparse search alone.
func TestFailedRootRecoversOnServedStudy(t *testing.T) {
	cfg, err := arch.LoadFile("testdata/mobilenetv2_seed2_winner.json")
	if err != nil {
		t.Fatal(err)
	}
	count := ilp.CountFailures()
	r := exactReport(t, "mobilenetv2", cfg)
	failed, unrecovered := count()
	if failed == 0 {
		t.Fatal("no node LP failed: the instance no longer exercises the retry")
	}
	if unrecovered != 0 || r.Fusion.Method != "ilp-optimal" {
		t.Fatalf("%d of %d failed node LPs unrecovered, method %s after %d nodes; want every failure recovered and a proof",
			unrecovered, failed, r.Fusion.Method, r.Fusion.Nodes)
	}
	t.Logf("%d failed node LPs recovered, proven in %d nodes", failed, r.Fusion.Nodes)
}
