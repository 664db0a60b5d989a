package sim

import (
	"math"
	"testing"

	"fast/internal/arch"
	"fast/internal/fusion"
	"fast/internal/hlo"
	"fast/internal/models"
)

// simulateWorkload builds the workload at the design's native batch and
// simulates it (the way every experiment drives the simulator).
func simulateWorkload(t *testing.T, name string, cfg *arch.Config, opts Options) *Result {
	t.Helper()
	g := models.MustBuild(name, cfg.NativeBatch)
	r, err := Simulate(g, cfg, opts)
	if err != nil {
		t.Fatalf("%s on %s: %v", name, cfg.Name, err)
	}
	if r.ScheduleFailed {
		t.Fatalf("%s on %s: schedule failure: %s", name, cfg.Name, r.FailReason)
	}
	return r
}

func TestBasicSanity(t *testing.T) {
	r := simulateWorkload(t, "efficientnet-b0", arch.TPUv3(), BaselineOptions())
	if r.LatencySec <= 0 || r.QPS <= 0 {
		t.Fatalf("latency %.3g qps %.3g", r.LatencySec, r.QPS)
	}
	if r.Utilization <= 0 || r.Utilization > 1 {
		t.Errorf("utilization = %.3f", r.Utilization)
	}
	if r.TDPWatts <= 0 || r.AreaMM2 <= 0 || r.PerfPerTDP <= 0 {
		t.Errorf("power stats: %+v", r)
	}
	if r.OpIntensityPost < r.OpIntensityPre {
		t.Errorf("fusion reduced op intensity: %.1f → %.1f", r.OpIntensityPre, r.OpIntensityPost)
	}
}

func TestB7TPUUtilizationLow(t *testing.T) {
	// §4.2: overall TPU-v3 utilization on EfficientNet-B7 is ~14.8%.
	// Accept the 8-25% band (our simulator, like the paper's, is
	// optimistic in places).
	r := simulateWorkload(t, "efficientnet-b7", arch.TPUv3(), BaselineOptions())
	if r.Utilization < 0.05 || r.Utilization > 0.30 {
		t.Errorf("B7 utilization on TPU-v3 = %.3f, want ~0.148", r.Utilization)
	}
}

func TestDepthwiseDominatesB7Runtime(t *testing.T) {
	// Table 2: depthwise ~5% of FLOPs but the majority of runtime.
	r := simulateWorkload(t, "efficientnet-b7", arch.TPUv3(), BaselineOptions())
	rows := r.ByClassRegion(ClassifyCNN)
	shares := map[string]ClassBreakdown{}
	for _, row := range rows {
		shares[row.Class] = row
	}
	dw := shares["DepthwiseConv2dNative"]
	conv := shares["Conv2D"]
	if dw.FLOPShare > 0.10 {
		t.Errorf("depthwise FLOP share = %.3f, want ~0.05", dw.FLOPShare)
	}
	if dw.RuntimeShare < 0.35 {
		t.Errorf("depthwise runtime share = %.3f, want dominant (paper: 0.65)", dw.RuntimeShare)
	}
	if conv.FLOPShare < 0.85 {
		t.Errorf("conv FLOP share = %.3f, want ~0.95", conv.FLOPShare)
	}
	if dw.RuntimeShare <= conv.RuntimeShare {
		t.Errorf("depthwise (%.2f) must out-cost conv (%.2f) in runtime",
			dw.RuntimeShare, conv.RuntimeShare)
	}
}

func TestFASTLargeBeatsTPUOnB7(t *testing.T) {
	// Table 5: FAST-Large ≈3.5× the QPS at lower TDP → Perf/TDP ≈3.9×;
	// utilization 0.61 vs 0.14; latency 11ms vs 609ms (two cores, batch
	// 2×64).
	tpu := simulateWorkload(t, "efficientnet-b7", arch.DieShrunkTPUv3(), BaselineOptions())
	fl := simulateWorkload(t, "efficientnet-b7", arch.FASTLarge(), FASTOptions())
	if fl.QPS <= tpu.QPS {
		t.Errorf("FAST-Large QPS %.0f must beat TPU %.0f", fl.QPS, tpu.QPS)
	}
	gain := (fl.QPS / fl.TDPWatts) / (tpu.QPS / tpu.TDPWatts)
	if gain < 2.0 || gain > 8.0 {
		t.Errorf("Perf/TDP gain = %.2f, want ≈3.9 (2-8 band)", gain)
	}
	if fl.Utilization < 2*tpu.Utilization {
		t.Errorf("FAST-Large util %.2f should far exceed TPU %.2f", fl.Utilization, tpu.Utilization)
	}
	if fl.LatencySec >= tpu.LatencySec {
		t.Errorf("FAST-Large latency %.1fms should be far below TPU %.1fms",
			fl.LatencySec*1e3, tpu.LatencySec*1e3)
	}
}

func TestFusionRemovesMemoryStall(t *testing.T) {
	// Table 5: FAST-Large pre-fusion stall 63% → 9% post (85% fusion
	// efficiency) on B7.
	fl := simulateWorkload(t, "efficientnet-b7", arch.FASTLarge(), FASTOptions())
	if fl.MemStallPre < 0.3 {
		t.Errorf("pre-fusion stall = %.2f, want large (paper 0.63)", fl.MemStallPre)
	}
	if fl.MemStallPost > fl.MemStallPre/2 {
		t.Errorf("post-fusion stall %.2f should be well below pre %.2f", fl.MemStallPost, fl.MemStallPre)
	}
	if fl.FusionEfficiency < 0.5 || fl.FusionEfficiency > 1.0+1e-9 {
		t.Errorf("fusion efficiency = %.2f, want high (paper 0.85)", fl.FusionEfficiency)
	}
	// Disabled fusion: no improvement.
	off, err := Simulate(models.MustBuild("efficientnet-b7", 8), arch.FASTLarge(),
		Options{Fusion: fusion.Options{Disable: true}})
	if err != nil {
		t.Fatal(err)
	}
	if off.LatencySec <= fl.LatencySec {
		t.Error("disabling fusion must not be faster")
	}
	if off.FusionEfficiency != 0 {
		t.Errorf("disabled fusion efficiency = %.2f", off.FusionEfficiency)
	}
}

func TestFusionNeedsGlobalMemory(t *testing.T) {
	// §6.2.7: without GM there is nothing to fuse into.
	c := arch.FASTLarge().Clone("no-gm")
	c.GlobalMiB = 0
	r := simulateWorkload(t, "efficientnet-b0", c, FASTOptions())
	if r.FusionEfficiency != 0 {
		t.Errorf("fusion efficiency without GM = %.2f, want 0", r.FusionEfficiency)
	}
}

func TestOpIntensityImprovesWithGM(t *testing.T) {
	// Figure 13: post-fusion op intensity grows with Global Memory.
	prev := 0.0
	for _, gm := range []int64{8, 32, 128} {
		c := arch.FASTLarge().Clone("gm-sweep")
		c.GlobalMiB = gm
		r := simulateWorkload(t, "efficientnet-b7", c, FASTOptions())
		if r.OpIntensityPost < prev-1e-9 {
			t.Errorf("op intensity decreased at GM=%d: %.1f < %.1f", gm, r.OpIntensityPost, prev)
		}
		prev = r.OpIntensityPost
	}
}

func TestBERTSoftmaxDominatesAtLongSeq(t *testing.T) {
	// Figure 5: softmax+attention dominate at seq 1024+, QKV+FFN at 128.
	cfgShort := arch.TPUv3().Clone("b128")
	cfgShort.NativeBatch = 8
	short := simulateWorkload(t, "bert-128", cfgShort, BaselineOptions())
	long := simulateWorkload(t, "bert-1024", cfgShort, BaselineOptions())

	share := func(r *Result, classes ...string) float64 {
		var s float64
		for _, row := range r.ByClass(ClassifyBERT) {
			for _, c := range classes {
				if row.Class == c {
					s += row.RuntimeShare
				}
			}
		}
		return s
	}
	attnShort := share(short, "Softmax", "Self-attention")
	attnLong := share(long, "Softmax", "Self-attention")
	if attnLong <= attnShort {
		t.Errorf("attention share must grow with seq len: %.2f → %.2f", attnShort, attnLong)
	}
	if attnLong < 0.4 {
		t.Errorf("attention+softmax share at seq1024 = %.2f, want dominant", attnLong)
	}
	if lin := share(short, "QKV projection", "Feed-forward"); lin < 0.5 {
		t.Errorf("QKV+FFN share at seq128 = %.2f, want dominant", lin)
	}
}

func TestTwoPassSoftmaxTradeoff(t *testing.T) {
	// §5.6: "the benefit of the two-pass approach is dependent on the
	// accelerator's memory bandwidth and vector unit throughput". On a
	// bandwidth-starved design with a wide VPU, two-pass must win; the
	// auto mode must always pick the better variant.
	g := models.MustBuild("bert-1024", 8)
	starved := arch.FASTLarge().Clone("starved")
	starved.MemChannels = 1 // 56 GB/s
	starved.VectorMult = 8  // wide VPU
	starved.GlobalMiB = 1   // defeat on-chip softmax rows
	off := fusion.Options{Disable: true}
	three, _ := Simulate(g, starved, Options{Fusion: off})
	two, _ := Simulate(g, starved, Options{Fusion: off, TwoPassSoftmax: true})
	if two.LatencySec >= three.LatencySec {
		t.Errorf("two-pass must win when bandwidth-starved: %.4f vs %.4f",
			two.LatencySec, three.LatencySec)
	}
	// Auto picks the min on any design.
	for _, c := range []*arch.Config{starved, arch.TPUv3()} {
		a, _ := Simulate(g, c, Options{Fusion: off})
		b, _ := Simulate(g, c, Options{Fusion: off, TwoPassSoftmax: true})
		auto, _ := Simulate(g, c, Options{Fusion: off, AutoSoftmax: true})
		if auto.LatencySec > math.Min(a.LatencySec, b.LatencySec)+1e-12 {
			t.Errorf("%s: auto softmax must pick the better variant", c.Name)
		}
	}
}

func TestScheduleFailurePropagates(t *testing.T) {
	c := arch.FASTLarge().Clone("bad")
	c.SAx, c.SAy = 256, 256
	c.PEsX, c.PEsY = 1, 1
	c.L1Config = arch.Private
	c.L1InputKiB, c.L1WeightKiB, c.L1OutputKiB = 1, 1, 1
	g := models.MustBuild("efficientnet-b0", 1)
	r, err := Simulate(g, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.ScheduleFailed || r.FailReason == "" {
		t.Errorf("expected schedule failure, got %+v", r)
	}
	// The text is pinned byte for byte: the mapper formats it lazily, only
	// for the failure it reports.
	const want = `op "stem.conv": weight buffer 1 KiB cannot hold a 256x256 double-buffered tile`
	if r.FailReason != want {
		t.Errorf("FailReason = %q, want %q", r.FailReason, want)
	}
}

func TestInvalidInputsError(t *testing.T) {
	g := models.MustBuild("efficientnet-b0", 1)
	bad := arch.FASTLarge().Clone("bad")
	bad.PEsX = 3
	if _, err := Simulate(g, bad, Options{}); err == nil {
		t.Error("invalid config must error")
	}
	gBad := hlo.NewGraph("broken")
	gBad.Ops = append(gBad.Ops, &hlo.Op{ID: 5})
	if _, err := Simulate(gBad, arch.FASTLarge(), Options{}); err == nil {
		t.Error("invalid graph must error")
	}
}

func TestOpTimesSumToLatency(t *testing.T) {
	r := simulateWorkload(t, "resnet50", arch.TPUv3(), BaselineOptions())
	var sum float64
	for _, ot := range r.OpTimes() {
		sum += ot.Sec
	}
	if math.Abs(sum-r.LatencySec) > 1e-9*math.Max(1, r.LatencySec) {
		t.Errorf("op times sum %.6g != latency %.6g", sum, r.LatencySec)
	}
}

func TestByBlockCoversGraph(t *testing.T) {
	r := simulateWorkload(t, "efficientnet-b0", arch.TPUv3(), BaselineOptions())
	blocks := r.ByBlock()
	if len(blocks) < 10 {
		t.Fatalf("blocks = %d, want one per MBConv stage-layer + stem + head", len(blocks))
	}
	var flops int64
	for _, b := range blocks {
		flops += b.FLOPs
		if b.Utilization < 0 || b.Utilization > 1.0+1e-9 {
			t.Errorf("block %s utilization = %.3f", b.Block, b.Utilization)
		}
	}
	if flops != hlo.Stats(r.Graph).FLOPs {
		t.Errorf("block FLOPs %d != graph %d", flops, hlo.Stats(r.Graph).FLOPs)
	}
}

func TestEarlyLayersLowUtilization(t *testing.T) {
	// Figure 4: earlier EfficientNet layers have lower utilization than
	// the best later layers (fewer channels).
	r := simulateWorkload(t, "efficientnet-b7", arch.TPUv3(), BaselineOptions())
	blocks := r.ByBlock()
	early := blocks[1].Utilization // first MBConv block
	best := 0.0
	for _, b := range blocks[len(blocks)/2:] {
		if b.Utilization > best {
			best = b.Utilization
		}
	}
	if early >= best {
		t.Errorf("early block util %.3f should be below best late util %.3f", early, best)
	}
}

func TestOCRWorkloadsAlreadyEfficient(t *testing.T) {
	// §6.1: OCR workloads are the worst case for FAST because they
	// already run efficiently; their TPU utilization must far exceed
	// B7's.
	b7 := simulateWorkload(t, "efficientnet-b7", arch.TPUv3(), BaselineOptions())
	rpn := simulateWorkload(t, "ocr-rpn", arch.TPUv3(), BaselineOptions())
	if rpn.Utilization < 2*b7.Utilization {
		t.Errorf("OCR-RPN util %.3f should be ≫ B7 %.3f", rpn.Utilization, b7.Utilization)
	}
}
