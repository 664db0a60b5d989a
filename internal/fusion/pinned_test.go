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
			h := fnv.New64a()
			for _, flags := range [][]bool{r.Fusion.PinWeight, r.Fusion.EdgeOnChip, r.Fusion.KVOnChip} {
				for _, b := range flags {
					if b {
						h.Write([]byte{1})
					} else {
						h.Write([]byte{0})
					}
				}
			}
			if r.Fusion.Method != "ilp-optimal" || r.Fusion.Nodes != tc.nodes || h.Sum64() != tc.assignment {
				t.Errorf("method %s, %d nodes, assignment %#x; want ilp-optimal, %d nodes, %#x",
					r.Fusion.Method, r.Fusion.Nodes, h.Sum64(), tc.nodes, tc.assignment)
			}
		})
	}
}
