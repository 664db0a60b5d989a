package fusion_test

// The exact solve is pinned, not just its objective: the sparse basis
// kernels are bit-for-bit equivalents of the dense ones they replaced,
// so the pivots, the branch-and-bound node count and the assignment of
// every proven reference pair are those of the dense-LU solver. A
// kernel change that reorders one accumulation shows up here as a node
// count.

import (
	"hash/fnv"
	"testing"
	"time"

	"fast/internal/arch"
	"fast/internal/fusion"
	"fast/internal/models"
	"fast/internal/sim"
)

func TestExactSolvePinned(t *testing.T) {
	for _, tc := range []struct {
		model, design string
		nodes         int
		assignment    uint64 // FNV-1a over the pin, keep and hold flags
	}{
		{"ocr-rpn", "fast-small", 171, 0x50822ef5d4d4de66},
		{"bert-128", "fast-small", 605, 0xa6a6250c1e20f87d},
		{"bert-1024", "fast-small", 25, 0x808af48b1277eadd},
		{"resnet50", "fast-small", 13, 0x45baca9bd267d2c6},
		{"bert-128", "tpu-v3", 689, 0xa6a6250c1e20f87d},
	} {
		t.Run(tc.model+"/"+tc.design, func(t *testing.T) {
			cfg := arch.ByName(tc.design)
			g, err := models.Build(tc.model, cfg.NativeBatch)
			if err != nil {
				t.Fatal(err)
			}
			opts := sim.FASTOptions()
			opts.Fusion.GreedyOnly = false
			// The count is deterministic only when the solve finishes; a
			// minute is two orders of magnitude of head room.
			opts.Fusion.Deadline = time.Minute
			r, err := sim.Simulate(g, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if h := assignmentHash(r.Fusion); r.Fusion.Method != "ilp-optimal" || r.Fusion.Nodes != tc.nodes || h != tc.assignment {
				t.Errorf("method %s, %d nodes, assignment %#x; want ilp-optimal, %d nodes, %#x",
					r.Fusion.Method, r.Fusion.Nodes, h, tc.nodes, tc.assignment)
			}
		})
	}
}

// assignmentHash is FNV-1a over a solution's pin, keep and hold flags.
func assignmentHash(sol fusion.Solution) uint64 {
	return flagsHash(sol.PinWeight, sol.EdgeOnChip, sol.KVOnChip)
}

// flagsHash is FNV-1a over pin, keep and hold flags.
func flagsHash(pin, keep, hold []bool) uint64 {
	h := fnv.New64a()
	for _, flags := range [][]bool{pin, keep, hold} {
		for _, b := range flags {
			if b {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
	}
	return h.Sum64()
}

// TestMulti64WinnerStopsAtRoot pins the relative-gap stop on the
// instance that motivated it: the winner of `fast-search -multi -trials
// 64 -seed 1`. The exact report keeps the greedy placement on all five
// workloads, and the two solves that used to branch until the deadline
// (efficientnet-b7, ocr-recognizer) stop at the root, whose LP bound
// already certifies the greedy warm start within the tolerance; the
// other three prove optimality as before. The minute-long deadline
// keeps the outcome independent of the host.
func TestMulti64WinnerStopsAtRoot(t *testing.T) {
	cfg, err := arch.LoadFile("testdata/multi64_seed1_winner.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		model, method string
		nodes         int
	}{
		{"efficientnet-b7", "ilp-within-tol", 1},
		{"resnet50", "ilp-optimal", 1},
		{"ocr-rpn", "ilp-optimal", 1},
		{"ocr-recognizer", "ilp-within-tol", 1},
		{"bert-1024", "ilp-optimal", 73},
	} {
		t.Run(tc.model, func(t *testing.T) {
			g, err := models.Build(tc.model, cfg.NativeBatch)
			if err != nil {
				t.Fatal(err)
			}
			greedy, err := sim.Simulate(g, cfg, sim.FASTOptions())
			if err != nil {
				t.Fatal(err)
			}
			opts := sim.FASTOptions()
			opts.Fusion.GreedyOnly = false
			opts.Fusion.Deadline = time.Minute
			r, err := sim.Simulate(g, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := assignmentHash(r.Fusion), assignmentHash(greedy.Fusion); got != want {
				t.Errorf("exact assignment %#x, greedy %#x; want the greedy placement", got, want)
			}
			if r.Fusion.Method != tc.method || r.Fusion.Nodes != tc.nodes {
				t.Errorf("method %s, %d nodes; want %s, %d nodes", r.Fusion.Method, r.Fusion.Nodes, tc.method, tc.nodes)
			}
		})
	}
}

// soleInstance returns the one fusion instance a report of model on cfg
// solves.
func soleInstance(t *testing.T, model string, cfg *arch.Config) instance {
	t.Helper()
	ins := captureInstances(t, model, []*arch.Config{cfg})
	if len(ins) != 1 {
		t.Fatalf("%s: %d fusion instances, want 1", model, len(ins))
	}
	return ins[0]
}

// reportHardInstance is report_hard's solve: efficientnet-b0 on the
// seed-9 winner, whose greedy placement no deadline up to 2 s improves.
func reportHardInstance(t *testing.T) instance {
	t.Helper()
	cfg, err := arch.LoadFile("../../cmd/fast-bench/testdata/b0_seed9_winner.json")
	if err != nil {
		t.Fatal(err)
	}
	return soleInstance(t, "efficientnet-b0", cfg)
}

// TestStallLimit pins how the limit follows the deadline: one number up
// to the 2 s default, then in proportion.
func TestStallLimit(t *testing.T) {
	for _, tc := range []struct {
		deadline time.Duration
		nodes    int
	}{
		{time.Second, 16384}, {2 * time.Second, 16384}, {3 * time.Second, 24576}, {40 * time.Second, 327680},
	} {
		if got := fusion.StallNodes(tc.deadline); got != tc.nodes {
			t.Errorf("StallNodes(%v) = %d, want %d", tc.deadline, got, tc.nodes)
		}
	}
}

// TestStallStopPinned pins the stall stop on report_hard's instance:
// at the default limit the solve ends after exactly that many nodes
// and keeps the greedy placement it was warm started with. The
// minute-long deadline keeps the outcome independent of the host.
func TestStallStopPinned(t *testing.T) {
	in := reportHardInstance(t)
	pin, keep, hold := fusion.Greedy(in.regions, in.usable, in.capacity)
	stall := fusion.StallNodes(2 * time.Second)
	asn, res := fusion.SolveExact(in.regions, in.usable, in.capacity, time.Minute, stall)
	if asn.Method != "ilp-incumbent" || asn.Nodes != stall || res.ImprovedAt != 0 {
		t.Errorf("method %s, %d nodes, improved at %d; want ilp-incumbent after %d nodes on the warm start",
			asn.Method, asn.Nodes, res.ImprovedAt, stall)
	}
	if got, want := flagsHash(asn.Pin, asn.Keep, asn.Hold), flagsHash(pin, keep, hold); got != want {
		t.Errorf("assignment %#x, greedy %#x; want the greedy placement", got, want)
	}
	if asn.Gap <= 1e-3 || asn.Gap != res.Gap {
		t.Errorf("gap %g (solver %g); want the certified gap, above the tolerance", asn.Gap, res.Gap)
	}
}

// TestStallFloorPinned pins the floor the default limit was sized
// from: ocr-rpn/tpu-v3 improves at node 311 and again at node 14,450,
// which the 0.1% tolerance then certifies. The default limit reaches
// that improvement; one node fewer than its 14,139-node stall stops
// the search just short of it.
func TestStallFloorPinned(t *testing.T) {
	in := soleInstance(t, "ocr-rpn", arch.ByName("tpu-v3"))
	for _, tc := range []struct {
		stall         int
		method        string
		nodes, improv int
	}{
		{fusion.StallNodes(2 * time.Second), "ilp-within-tol", 14450, 14450},
		{14139, "ilp-within-tol", 14450, 14450},
		{14138, "ilp-incumbent", 14449, 311},
	} {
		asn, res := fusion.SolveExact(in.regions, in.usable, in.capacity, time.Minute, tc.stall)
		if asn.Method != tc.method || asn.Nodes != tc.nodes || res.ImprovedAt != tc.improv {
			t.Errorf("stall %d: method %s, %d nodes, improved at %d; want %s, %d nodes, improved at %d",
				tc.stall, asn.Method, asn.Nodes, res.ImprovedAt, tc.method, tc.nodes, tc.improv)
		}
	}
}

// TestStallLimitSlope: a raised deadline still buys a deeper search.
// report_hard's greedy placement is not optimal; the limit a 40 s
// deadline allows reaches a better one, far past the default limit.
// About 4 s of solving, which the race detector stretches past the
// deadline; the -race runs leave it out.
func TestStallLimitSlope(t *testing.T) {
	if raceEnabled {
		t.Skip("87k nodes outlast the deadline under -race")
	}
	in := reportHardInstance(t)
	pin, keep, hold := fusion.Greedy(in.regions, in.usable, in.capacity)
	asn, res := fusion.SolveExact(in.regions, in.usable, in.capacity, time.Minute, fusion.StallNodes(40*time.Second))
	if res.ImprovedAt <= fusion.StallNodes(2*time.Second) {
		t.Errorf("improved at node %d (%s, %d nodes); want past the default limit", res.ImprovedAt, asn.Method, asn.Nodes)
	}
	if flagsHash(asn.Pin, asn.Keep, asn.Hold) == flagsHash(pin, keep, hold) {
		t.Error("the deeper search kept the greedy placement")
	}
	t.Logf("%s after %d nodes, improved at %d, gap %g", asn.Method, asn.Nodes, res.ImprovedAt, asn.Gap)
}
