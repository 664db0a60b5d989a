package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fast/internal/arch"
	"fast/internal/hlo"
	"fast/internal/models"
)

// usesKVCache reports whether the named workload's graph reads a
// persistent KV-cache (an autoregressive decode step). Such graphs
// carry a traffic class the pre-KV frozen reference simulator does not
// model, so differential suites that compare against it skip them;
// decode models are instead pinned by their own golden results.
func usesKVCache(name string) bool {
	return hlo.Stats(models.MustBuild(name, 1)).KVBytes > 0
}

// kvModels are the registry decode workloads (the ones the frozen
// pre-split differential skips — see plan_test.go).
func kvModels() []string {
	out := []string{}
	for _, name := range models.Names() {
		if usesKVCache(name) {
			out = append(out, name)
		}
	}
	return out
}

// TestDecodeGoldenResults pins the decode workloads' simulated latency
// and QPS bit-for-bit on the reference designs, the decoder analogue of
// the encoder suite's frozen-reference differential: KV-cache residency
// has no frozen oracle, so these hex pins are the regression surface.
func TestDecodeGoldenResults(t *testing.T) {
	pins := []struct {
		model, design string
		lat, qps      uint64
		held          int
	}{
		{"gpt2-decode-1024", "fast-decode", 0x3f31321e79810ea1, 0x40adc6561b39c682, 2},
		{"gpt2-decode-1024", "fast-large", 0x3f414eca255f5436, 0x409d950396b03a0f, 2},
		{"gpt2-decode-1024", "tpu-v3", 0x3f4d4354491e8abf, 0x40a17f1a418c575f, 0},
		{"gpt2-local-decode-1024", "fast-decode", 0x3f2a021392523f76, 0x40b3afa89791b459, 0},
		{"gpt2-local-decode-1024", "fast-large", 0x3f3e7af3dca08130, 0x40a0cc38f376724f, 2},
		{"gpt2-local-decode-1024", "tpu-v3", 0x3f496198e93c2fcc, 0x40a42c211353453b, 0},
	}
	for _, pin := range pins {
		g := models.MustBuild(pin.model, 1)
		res, err := Simulate(g, arch.ByName(pin.design), FASTOptions())
		if err != nil {
			t.Fatalf("%s/%s: %v", pin.model, pin.design, err)
		}
		if got := math.Float64bits(res.LatencySec); got != pin.lat {
			t.Errorf("%s/%s: latency bits %#x, want %#x (%.6e vs %.6e)",
				pin.model, pin.design, got, pin.lat, res.LatencySec, math.Float64frombits(pin.lat))
		}
		if got := math.Float64bits(res.QPS); got != pin.qps {
			t.Errorf("%s/%s: QPS bits %#x, want %#x", pin.model, pin.design, got, pin.qps)
		}
		var held int
		for ri := range res.Regions {
			if res.Fusion.KVOnChip[ri] {
				held++
			}
		}
		if held != pin.held {
			t.Errorf("%s/%s: %d cache slabs held, want %d", pin.model, pin.design, held, pin.held)
		}
	}
}

// TestDecodeKVAccounting checks the KV traffic invariants on every
// decode workload × reference design: cache bytes appear in the
// pre-fusion traffic, held slabs vanish from the post-fusion traffic,
// and the graph's total cache footprint is conserved across regions.
func TestDecodeKVAccounting(t *testing.T) {
	for _, model := range kvModels() {
		g := models.MustBuild(model, 1)
		wantKV := hlo.Stats(g).KVBytes
		for _, cfg := range append(planDesigns(), arch.FASTDecode()) {
			res, err := Simulate(g, cfg, FASTOptions())
			if err != nil {
				t.Fatalf("%s/%s: %v", model, cfg.Name, err)
			}
			var totalKV int64
			for ri, rs := range res.Regions {
				totalKV += rs.KVBytes
				if rs.DRAMBytesPre < rs.KVBytes {
					t.Errorf("%s/%s region %d: pre-fusion traffic %d below its KV bytes %d",
						model, cfg.Name, ri, rs.DRAMBytesPre, rs.KVBytes)
				}
				if res.Fusion.KVOnChip[ri] {
					if rs.KVBytes == 0 {
						t.Errorf("%s/%s region %d: held a zero-byte cache", model, cfg.Name, ri)
					}
					if rs.DRAMBytesPost > rs.DRAMBytesPre-rs.KVBytes {
						t.Errorf("%s/%s region %d: held cache still in post-fusion traffic (%d > %d-%d)",
							model, cfg.Name, ri, rs.DRAMBytesPost, rs.DRAMBytesPre, rs.KVBytes)
					}
				}
			}
			if totalKV != wantKV {
				t.Errorf("%s/%s: regions carry %d KV bytes, graph has %d", model, cfg.Name, totalKV, wantKV)
			}
		}
	}
}

// TestDecodeKVCapacityGate: a design whose Global Memory cannot fit a
// single cache slab must never hold one (evaluate's KV-eligibility gate), and
// disabling fusion holds nothing anywhere.
func TestDecodeKVCapacityGate(t *testing.T) {
	g := models.MustBuild("gpt2-decode-1024", 1)
	tiny := arch.FASTDecode().Clone("fast-decode-tinygm")
	tiny.GlobalMiB = 1 // below the 1.5 MiB per-layer slab
	res, err := Simulate(g, tiny, FASTOptions())
	if err != nil {
		t.Fatal(err)
	}
	for ri := range res.Regions {
		if res.Fusion.KVOnChip[ri] {
			t.Fatalf("region %d holds a %d-byte slab in a 1 MiB GM", ri, res.Regions[ri].KVBytes)
		}
	}
	opts := FASTOptions()
	opts.Fusion.Disable = true
	off, err := Simulate(g, arch.FASTDecode(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for ri := range off.Regions {
		if off.Fusion.KVOnChip[ri] {
			t.Fatalf("region %d holds its cache with fusion disabled", ri)
		}
	}
	if off.LatencySec < res.LatencySec {
		t.Errorf("fusion-off latency %.3e beat the tiny-GM fused run %.3e", off.LatencySec, res.LatencySec)
	}
}

// TestDecodeEvaluateBatchMatchesEvaluate is the decode counterpart of
// the frozen-suite batch differential: EvaluateBatch over the reference
// designs plus a seeded random sweep must be bit-identical to per-design
// Evaluate, in input order, on one shared plan.
func TestDecodeEvaluateBatchMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(1009))
	for _, model := range kvModels() {
		g := models.MustBuild(model, 1)
		plan, err := Compile(g, FASTOptions())
		if err != nil {
			t.Fatalf("%s: Compile: %v", model, err)
		}
		designs := append(planDesigns(), arch.FASTDecode())
		designs = append(designs, randomSweep(rng, 20)...)
		batch, err := plan.EvaluateBatch(designs)
		if err != nil {
			t.Fatalf("%s: EvaluateBatch: %v", model, err)
		}
		for i, cfg := range designs {
			serial, err := plan.Evaluate(cfg)
			if err != nil {
				t.Fatalf("%s/%s: Evaluate: %v", model, cfg.Name, err)
			}
			if !reflect.DeepEqual(serial, batch[i]) {
				t.Errorf("%s design %d (%s): batch result diverged from serial Evaluate", model, i, cfg.Name)
			}
		}
	}
}
