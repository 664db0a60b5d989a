package fusion_test

// Full-ILP differential: the sparse revised-simplex fusion solve
// against the frozen dense-tableau reference on the fusion instances
// the simulator's reference models × designs generate.
//
// The dense solver is only a sound oracle where it proves optimality
// without hitting its per-LP iteration cap, so the matrix below is the
// subset of reference instances where it does (measured; the excluded
// instances — efficientnet-b5..b7 and the OCR recognizer on the TPU
// datapaths among others — take the dense core minutes per solve or
// trip its cap, which silently weakens its bounds). On two further
// instances the dense tableau's absolute pivot tolerances can return a
// provably suboptimal "optimal" on fusion-scaled coefficients (costs
// ~1e-6 against byte columns ~1e8) — the ilp-level fusion-shaped suite
// pins that against brute force — so an assignment mismatch here is
// only a failure when the sparse total is *worse*.

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"fast/internal/arch"
	"fast/internal/fusion"
)

// resolve runs SolvePlanned and ResolvePlanned on a copy of one
// captured instance.
func resolve(in instance, opts fusion.Options) fusion.Solution {
	regions := slices.Clone(in.regions)
	var sol fusion.Solution
	fusion.ResolvePlanned(&sol, regions, in.capacity, fusion.SolvePlanned(regions, in.usable, in.capacity, opts))
	return sol
}

// solveBoth solves one instance with the sparse core and with the dense
// reference.
func solveBoth(in instance, opts fusion.Options) (sparse, dense fusion.Solution) {
	sparse = resolve(in, opts)
	defer fusion.UseDenseILP()()
	return sparse, resolve(in, opts)
}

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
	opts := fusion.Options{Deadline: time.Minute}
	routed := false // some instance's node count tells the two solvers apart
	for _, tc := range suite {
		for _, cfg := range tc.cfgs {
			ins := captureInstances(t, tc.model, []*arch.Config{cfg})
			if len(ins) == 0 {
				t.Fatalf("%s/%s: no fusion instance", tc.model, cfg.Name)
			}
			for k, in := range ins {
				label := fmt.Sprintf("%s/%s#%d", tc.model, cfg.Name, k)
				sp, de := solveBoth(in, opts)
				routed = routed || sp.Nodes != de.Nodes
				if sp.Method != "ilp-optimal" {
					t.Fatalf("%s: sparse method %s, want proven optimality", label, sp.Method)
				}
				if de.Method != "ilp-optimal" {
					t.Fatalf("%s: dense method %s — instance no longer dense-sound, update the matrix", label, de.Method)
				}
				if slices.Equal(sp.PinWeight, de.PinWeight) && slices.Equal(sp.EdgeOnChip, de.EdgeOnChip) {
					// Identical assignment ⇒ identical roll-up arithmetic.
					if sp.Total != de.Total || sp.GMUsedPeak != de.GMUsedPeak {
						t.Errorf("%s: identical assignment, diverging results: total %x vs %x",
							label, sp.Total, de.Total)
					}
					continue
				}
				// Diverging assignments: both claim optimality, so the sparse
				// total may only be better (dense's absolute tolerances can
				// lose exactness on this scaling; see the ilp brute-force
				// suite).
				if sp.Total > de.Total+1e-12*(1+math.Abs(de.Total)) {
					t.Errorf("%s: sparse total %.15g worse than dense %.15g", label, sp.Total, de.Total)
				} else {
					t.Logf("%s: assignments differ; sparse total %.15g ≤ dense %.15g (dense tolerance artifact)",
						label, sp.Total, de.Total)
				}
			}
		}
	}
	if !routed {
		t.Error("sparse and dense node counts agree on every instance: the dense route never ran")
	}
}

// BenchmarkFullILPDense is the dense-tableau half of the root
// package's BenchmarkFullILPEvaluate: the same three ILP-dominated
// reference instances, each solved to proven optimality by the frozen
// dense reference solver. nodes/op reports branch-and-bound nodes per
// iteration across the instances.
func BenchmarkFullILPDense(b *testing.B) {
	var ins []instance
	for _, model := range []string{"ocr-rpn", "resnet50", "bert-1024"} {
		ins = append(ins, captureInstances(b, model, []*arch.Config{arch.FASTSmall()})...)
	}
	defer fusion.UseDenseILP()()
	// No deadline pressure: the solve must prove optimality, so ns/op
	// times full exact solves, not incumbent cutoffs.
	opts := fusion.Options{Deadline: 5 * time.Minute}
	var nodes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range ins {
			asn := fusion.SolvePlanned(slices.Clone(in.regions), in.usable, in.capacity, opts)
			if asn.Method != "ilp-optimal" {
				b.Fatalf("method %s, want proven optimality", asn.Method)
			}
			nodes += int64(asn.Nodes)
		}
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}
