package models

import (
	"fmt"
	"hash/fnv"
	"testing"

	"fast/internal/hlo"
)

// graphDigest is an FNV-1a digest of everything a graph's consumers read:
// per op, in order, its ID, name, kind name, block, output and weight
// shapes (with their labels), convolution and einsum parameters, weight
// key, vector-op cost and input IDs, then the output list. Kinds enter
// by name, so renumbering the Kind constants leaves it unchanged.
func graphDigest(g *hlo.Graph) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "graph %q\n", g.Name)
	for _, op := range g.Ops {
		fmt.Fprintf(h, "%d %q %s %q out=%s/%q w=%s/%q key=%q vec=%v",
			op.ID, op.Name, op.Kind, op.Block, op.Output, op.Output.Name,
			op.Weights, op.Weights.Name, op.WeightKey, op.VecOpsPerElem)
		if op.Conv != nil {
			fmt.Fprintf(h, " conv=%+v", *op.Conv)
		}
		if op.Einsum != nil {
			fmt.Fprintf(h, " einsum=%+v", *op.Einsum)
		}
		for _, in := range op.Inputs {
			fmt.Fprintf(h, " <%d", in.ID)
		}
		fmt.Fprintln(h)
	}
	for _, out := range g.Outputs() {
		fmt.Fprintf(h, "output %d\n", out.ID)
	}
	return h.Sum64()
}

// TestGraphsPinned holds every registry workload, and the BERT and GPT
// sequence lengths the experiments use, to a digest of its graph at
// batch 1 and 8: a builder refactor must reproduce each graph op for op.
// On a mismatch the test prints the table's new rows; a change that
// means to alter a graph must say why it replaces them.
func TestGraphsPinned(t *testing.T) {
	pins := []struct {
		name   string
		batch  int64
		digest uint64
	}{
		{"bert-1024", 1, 0xc53c6aa2013d68fa},
		{"bert-1024", 8, 0x470eea1cf9d8fd7d},
		{"bert-128", 1, 0x1fb419688b17302e},
		{"bert-128", 8, 0x4e5101cfbb0ac153},
		{"efficientnet-b0", 1, 0xe1b4104f29749632},
		{"efficientnet-b0", 8, 0x6f5b9e0d4680e80c},
		{"efficientnet-b1", 1, 0x4183788c9cf06d47},
		{"efficientnet-b1", 8, 0x14a6255a870707bb},
		{"efficientnet-b2", 1, 0xcd484fd78cc8e9aa},
		{"efficientnet-b2", 8, 0xb3091d1d01f9be64},
		{"efficientnet-b3", 1, 0x8733bbdece1ad7ef},
		{"efficientnet-b3", 8, 0xa73aed63f30c1822},
		{"efficientnet-b4", 1, 0x3b6979a6a91efade},
		{"efficientnet-b4", 8, 0x39170f7d45a9e273},
		{"efficientnet-b5", 1, 0x08d54b0996f3ab25},
		{"efficientnet-b5", 8, 0x9240a8d80f0982d8},
		{"efficientnet-b6", 1, 0x8308d097c8b41942},
		{"efficientnet-b6", 8, 0x95df06acde88d1cd},
		{"efficientnet-b7", 1, 0x674fa634b4831126},
		{"efficientnet-b7", 8, 0x9da3283a577da7f0},
		{"gpt2-decode-1024", 1, 0xa7cb9efe154975f8},
		{"gpt2-decode-1024", 8, 0x2b0f5071dc7159dd},
		{"gpt2-local-decode-1024", 1, 0xeb054bebd366c84d},
		{"gpt2-local-decode-1024", 8, 0xf5f72ad9bcbf87fc},
		{"gpt2-local-prefill-1024", 1, 0xff802f7b5bb90320},
		{"gpt2-local-prefill-1024", 8, 0x788bcd40a1567eed},
		{"gpt2-prefill-1024", 1, 0x81477bd4b025e649},
		{"gpt2-prefill-1024", 8, 0xcb7c972ab7190ebe},
		{"gpt2-prefill-128", 1, 0x563eac82cf9b436e},
		{"gpt2-prefill-128", 8, 0xf1720e667342a19f},
		{"mobilenetv2", 1, 0x275b4ffccce4ccd0},
		{"mobilenetv2", 8, 0x063885e4e7ae1c13},
		{"ocr-recognizer", 1, 0xbb7fe9a7921c8d03},
		{"ocr-recognizer", 8, 0x979a7ddce3aef6b2},
		{"ocr-rpn", 1, 0x424909863c7bf276},
		{"ocr-rpn", 8, 0xacb6e8d803b03b8f},
		{"resnet50", 1, 0xc21657186ecb0c9a},
		{"resnet50", 8, 0x9f94484e14689ee0},
		{"bert-256", 1, 0x90cf4391fbd06c12},
		{"bert-256", 8, 0x061d91e5945864fd},
		{"bert-512", 1, 0x0c098e4a9e727a62},
		{"bert-512", 8, 0x25c3ed365ee8bf8d},
		{"bert-2048", 1, 0x0aede552b0937ce6},
		{"bert-2048", 8, 0x32913fc1fe40976b},
		{"gpt2-prefill-512", 1, 0x470793690879df72},
		{"gpt2-prefill-512", 8, 0x454878fcb337884d},
		{"gpt2-decode-128", 1, 0xf46cf08af24ea299},
		{"gpt2-decode-128", 8, 0xe9942d7f86d2de14},
		{"gpt2-local-decode-128", 1, 0x5b03ce41f2df01ba},
		{"gpt2-local-decode-128", 8, 0x774cf1c0ef4c6597},
	}
	seen := map[string]bool{}
	for _, p := range pins {
		seen[fmt.Sprintf("%s@%d", p.name, p.batch)] = true
		if got := graphDigest(MustBuild(p.name, p.batch)); got != p.digest {
			t.Errorf("%s at batch %d: digest %#016x, want %#016x", p.name, p.batch, got, p.digest)
		}
	}
	names := append(Names(), "bert-256", "bert-512", "bert-2048",
		"gpt2-prefill-512", "gpt2-decode-128", "gpt2-local-decode-128")
	for _, name := range names {
		for _, b := range []int64{1, 8} {
			if !seen[fmt.Sprintf("%s@%d", name, b)] {
				t.Errorf("unpinned: {%q, %d, %#016x},", name, b, graphDigest(MustBuild(name, b)))
			}
		}
	}
}
