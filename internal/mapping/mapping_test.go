package mapping

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fast/internal/arch"
	"fast/internal/hlo"
	"fast/internal/models"
	"fast/internal/tensor"
)

func bigConv() Problem {
	// A late-stage conv: M = B·OH·OW = 8·14·14, N = 512, K = 3·3·512.
	return Problem{M: 8 * 14 * 14, N: 512, K: 9 * 512, Indep: 1,
		WeightsStationary: true, ConvLike: true, Bytes: 2}
}

func depthwise(c int64) Problem {
	return Problem{M: 8 * 56 * 56, N: 1, K: 9, Indep: c,
		WeightsStationary: true, ConvLike: true, Bytes: 2}
}

func TestFromOp(t *testing.T) {
	g := hlo.NewGraph("t")
	in := g.Input("x", tensor.NewShape(tensor.BF16, 2, 28, 28, 64))
	conv := g.Conv2D("c", in, 128, 3, 3, 1, true)
	p, ok := FromOp(conv)
	if !ok {
		t.Fatal("conv is a matrix op")
	}
	if p.M != 2*28*28 || p.N != 128 || p.K != 9*64 || p.Indep != 1 || !p.ConvLike {
		t.Errorf("conv problem = %+v", p)
	}
	dw := g.DepthwiseConv2D("d", conv, 5, 5, 1, true)
	p, _ = FromOp(dw)
	if p.K != 25 || p.N != 1 || p.Indep != 128 {
		t.Errorf("dw problem = %+v", p)
	}
	if p.FLOPs() != hlo.FLOPs(dw) {
		t.Errorf("dw FLOPs mismatch: %d vs %d", p.FLOPs(), hlo.FLOPs(dw))
	}
	act := g.Activation("a", dw, 1)
	if _, ok := FromOp(act); ok {
		t.Error("activation is not a matrix op")
	}
}

func TestFromOpFLOPsMatchHLO(t *testing.T) {
	// Property: for every matrix op in every workload, the extracted
	// problem's FLOPs equal the HLO accounting (minus LSTM gate math).
	for _, name := range []string{"efficientnet-b0", "resnet50", "bert-128"} {
		g := models.MustBuild(name, 4)
		for _, op := range g.Ops {
			p, ok := FromOp(op)
			if !ok {
				continue
			}
			want := hlo.FLOPs(op)
			if op.Kind == hlo.KLSTMCell {
				want -= int64(op.VecOpsPerElem) * op.Output.Elems()
			}
			if p.FLOPs() != want {
				t.Fatalf("%s/%s: problem FLOPs %d != op FLOPs %d", name, op.Name, p.FLOPs(), want)
			}
		}
	}
}

func TestDepthwiseUtilizationCliff(t *testing.T) {
	// §3.2: a 3×3 depthwise conv on a 128×128 array peaks at 9/128
	// utilization; on a 32×32 array it reaches 9/32.
	tpu := arch.TPUv3()
	m := Best(depthwise(64), tpu, Options{})
	if m.Failed {
		t.Fatalf("depthwise failed on TPU: %s", m.Reason)
	}
	if got, want := m.ArrayUtil, 9.0/128; math.Abs(got-want) > 0.01 {
		t.Errorf("depthwise array util on 128x128 = %.4f, want %.4f", got, want)
	}
	fl := arch.FASTLarge()
	m2 := Best(depthwise(64), fl, Options{})
	if got, want := m2.ArrayUtil, 9.0/32; math.Abs(got-want) > 0.03 {
		t.Errorf("depthwise array util on 32x32 = %.4f, want %.4f", got, want)
	}
	if m2.Utilization() <= m.Utilization() {
		t.Error("smaller arrays must improve depthwise utilization")
	}
}

func TestConvUtilizationHigh(t *testing.T) {
	// A large conv must map efficiently on the TPU (paper: ~65-75% for
	// big matmuls; our compute-phase util should exceed 0.7).
	m := Best(bigConv(), arch.TPUv3(), Options{})
	if m.Failed {
		t.Fatalf("conv failed: %s", m.Reason)
	}
	if m.Utilization() < 0.7 {
		t.Errorf("big conv utilization = %.3f, want > 0.7", m.Utilization())
	}
}

func TestAttentionUtilizationDropsAtHeadDim(t *testing.T) {
	// BERT attention: head dim 64 on a 128-wide array wastes half the
	// array (§4.3); a 64-wide array fixes it.
	attn := Problem{M: 1024, N: 1024, K: 64, Indep: 12, Bytes: 2}
	tpu := Best(attn, arch.TPUv3(), Options{})
	small := arch.FASTSmall()
	fs := Best(attn, small, Options{})
	if tpu.Failed || fs.Failed {
		t.Fatalf("attention failed: %v %v", tpu.Reason, fs.Reason)
	}
	if tpu.ArrayUtil > 0.55 {
		t.Errorf("attention on 128x128 array util = %.3f, want <= ~0.5", tpu.ArrayUtil)
	}
	if fs.ArrayUtil < tpu.ArrayUtil {
		t.Error("smaller array must not hurt attention utilization")
	}
}

func TestSchemeSelection(t *testing.T) {
	// Depthwise must choose conv-1d; big convs weight-stationary or
	// output-stationary.
	m := Best(depthwise(64), arch.TPUv3(), Options{})
	if m.Scheme != Conv1D {
		t.Errorf("depthwise scheme = %s, want conv-1d", m.Scheme)
	}
	m2 := Best(Problem{M: 4096, N: 4096, K: 4096, WeightsStationary: true, Indep: 1, Bytes: 2},
		arch.TPUv3(), Options{})
	if m2.Scheme == Conv1D {
		t.Error("dense matmul must not choose conv-1d")
	}
}

func TestConv1DRequiresConvLike(t *testing.T) {
	p := Problem{M: 128, N: 128, K: 64, Indep: 1, Bytes: 2}
	if _, f := evalScheme(p, arch.TPUv3(), Conv1D); f.kind != failNotConvLike {
		t.Errorf("conv-1d on a non-conv problem: failure %+v, want failNotConvLike", f)
	}
}

// TestBestAllocatesNothing is the allocation guard on the mapper's hot
// path: mapping a schedulable problem, even one that some schemes
// reject, formats no failure text and allocates nothing.
func TestBestAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	matmul := Problem{M: 512, N: 512, K: 512, Indep: 1, WeightsStationary: true, Bytes: 2}
	c := arch.FASTLarge().Clone("tight-output")
	c.L1OutputKiB = 1 // output-stationary cannot hold its accumulators
	for _, tc := range []struct {
		name string
		p    Problem
		c    *arch.Config
	}{
		{"conv on TPU-v3", bigConv(), arch.TPUv3()},
		{"matmul, conv-1d rejected", matmul, arch.TPUv3()},
		{"matmul, output-stationary rejected", matmul, c},
	} {
		if m := Best(tc.p, tc.c, Options{}); m.Failed {
			t.Fatalf("%s: must schedule: %s", tc.name, m.Reason)
		}
		if n := testing.AllocsPerRun(100, func() { Best(tc.p, tc.c, Options{}) }); n != 0 {
			t.Errorf("%s: Best allocates %.1f times per call, want 0", tc.name, n)
		}
	}
}

func TestScheduleFailureOnTinyBuffers(t *testing.T) {
	// A 256×256 array tile (128 KiB double-buffered 256 KiB) cannot fit
	// 1 KiB private L1 weight buffers → schedule failure (Eq. 5).
	c := arch.FASTLarge().Clone("tiny-l1")
	c.SAx, c.SAy = 256, 256
	c.PEsX, c.PEsY = 1, 1
	c.L1Config = arch.Private
	c.L1InputKiB, c.L1WeightKiB, c.L1OutputKiB = 1, 1, 1
	m := Best(bigConv(), c, Options{})
	if !m.Failed {
		t.Errorf("expected schedule failure, got %+v", m)
	}
	if m.Reason == "" {
		t.Error("failure must carry a reason")
	}
}

func TestSharedL1PoolsCapacity(t *testing.T) {
	// The same tiny per-PE buffers schedule when shared across 64 PEs.
	c := arch.FASTLarge().Clone("shared-l1")
	c.SAx, c.SAy = 128, 128
	c.L1InputKiB, c.L1WeightKiB, c.L1OutputKiB = 2, 2, 2
	c.L1Config = arch.Shared
	if m := Best(bigConv(), c, Options{}); m.Failed {
		t.Errorf("shared L1 should schedule: %s", m.Reason)
	}
	c.L1Config = arch.Private
	if m := Best(bigConv(), c, Options{}); !m.Failed {
		t.Error("private 2 KiB L1 must fail for a 128x128 tile")
	}
}

func TestPaddingMapsOddDims(t *testing.T) {
	// A 113×113 output (M = 12769) with 300 output channels factorizes
	// into no 128-wide tile; the padding pre-pass still maps it (§6.1).
	odd := Problem{M: 113 * 113, N: 300, K: 27, Indep: 1,
		WeightsStationary: true, ConvLike: true, Bytes: 2}
	if m := Best(odd, arch.TPUv3(), Options{}); m.Failed {
		t.Fatalf("padded odd conv failed: %s", m.Reason)
	}
}

func TestUtilizationBounds(t *testing.T) {
	// Property: utilization ∈ (0,1], cycles > 0 for random problems and
	// designs.
	s := arch.Space{}
	r := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		c := s.Random(rr, arch.FASTLarge())
		p := Problem{
			M:     1 + rr.Int63n(1<<16),
			N:     1 + rr.Int63n(1<<12),
			K:     1 + rr.Int63n(1<<12),
			Indep: 1 + rr.Int63n(64),
			Bytes: 2, WeightsStationary: rr.Intn(2) == 0, ConvLike: rr.Intn(2) == 0,
		}
		m := Best(p, c, Options{})
		if m.Failed {
			return true // failures are legal; feasibility is design-dependent
		}
		u := m.Utilization()
		return u > 0 && u <= 1.0+1e-9 && m.Cycles > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestCyclesLowerBound(t *testing.T) {
	// Property: reported cycles × peak MACs ≥ real MAC work (no scheme
	// can exceed peak).
	r := rand.New(rand.NewSource(13))
	s := arch.Space{}
	for i := 0; i < 300; i++ {
		c := s.Random(r, arch.FASTLarge())
		p := Problem{
			M: 1 + r.Int63n(1<<15), N: 1 + r.Int63n(1<<11), K: 1 + r.Int63n(1<<11),
			Indep: 1 + r.Int63n(16), Bytes: 2,
			WeightsStationary: true, ConvLike: r.Intn(2) == 0,
		}
		m := Best(p, c, Options{})
		if m.Failed {
			continue
		}
		macSlots := m.Cycles * float64(c.NumPEs()*c.MACsPerPE())
		work := float64(p.Indep * p.M * p.N * p.K)
		if macSlots < work*(1-1e-9) {
			t.Fatalf("cycles %0.f provide %.3g MAC slots < %.3g work (%s on %s)",
				m.Cycles, macSlots, work, m.Scheme, c)
		}
	}
}

func TestTrafficFloor(t *testing.T) {
	p := bigConv()
	compulsory := p.ActivationBytes() + p.StationaryBytes() + p.OutputBytes()
	// Huge capacity → compulsory only.
	if got := TrafficFloor(p, 1<<30); got != compulsory {
		t.Errorf("traffic with huge cap = %d, want compulsory %d", got, compulsory)
	}
	// Tiny capacity → more than compulsory.
	small := TrafficFloor(p, 32<<10)
	if small <= compulsory {
		t.Errorf("traffic with 32KiB cap = %d, want > %d", small, compulsory)
	}
	// Monotone non-increasing in capacity.
	prev := int64(math.MaxInt64)
	for _, cap := range []int64{16 << 10, 256 << 10, 4 << 20, 64 << 20} {
		got := TrafficFloor(p, cap)
		if got > prev {
			t.Errorf("traffic floor not monotone at cap %d", cap)
		}
		prev = got
	}
	// Zero/negative capacity falls back safely.
	if TrafficFloor(p, 0) < compulsory {
		t.Error("zero capacity floor must still cover compulsory traffic")
	}
}

func TestSchemeString(t *testing.T) {
	if WeightStationary.String() != "weight-stationary" ||
		OutputStationary.String() != "output-stationary" ||
		Conv1D.String() != "conv-1d" {
		t.Error("scheme names wrong")
	}
}

func TestSchemesRestriction(t *testing.T) {
	m := Best(depthwise(64), arch.TPUv3(), Options{Schemes: []Scheme{WeightStationary}})
	if m.Failed {
		t.Fatalf("WS-only depthwise failed: %s", m.Reason)
	}
	if m.Scheme != WeightStationary {
		t.Error("restriction ignored")
	}
	// WS-only depthwise wastes the columns: far worse than conv-1d.
	free := Best(depthwise(64), arch.TPUv3(), Options{})
	if m.Utilization() > free.Utilization()/4 {
		t.Errorf("WS depthwise util %.4f should be ≪ conv-1d %.4f", m.Utilization(), free.Utilization())
	}
}

// TestFailureReasonsPinned pins every mapper failure text byte for
// byte: Best formats only the failure it returns, and that text reaches
// users through sim.Result.FailReason.
func TestFailureReasonsPinned(t *testing.T) {
	cfg := func(mut func(c *arch.Config)) *arch.Config {
		c := arch.FASTLarge().Clone("pin")
		c.SAx, c.SAy = 128, 256
		c.PEsX, c.PEsY = 1, 1
		c.L1Config = arch.Private
		c.L1InputKiB, c.L1WeightKiB, c.L1OutputKiB = 1024, 1024, 1024
		mut(c)
		return c
	}
	only := func(s Scheme) Options { return Options{Schemes: []Scheme{s}} }
	dense := Problem{M: 512, N: 512, K: 512, Indep: 1, WeightsStationary: true, Bytes: 2}
	cases := []struct {
		name string
		p    Problem
		c    *arch.Config
		o    Options
		want string
	}{
		{"conv-1d on a matmul", dense, cfg(func(*arch.Config) {}), only(Conv1D),
			"conv-1d requires a convolution-like problem"},
		{"unknown scheme", dense, cfg(func(*arch.Config) {}), only(Scheme(7)),
			"unknown scheme"},
		{"accumulators", dense, cfg(func(c *arch.Config) { c.L1OutputKiB = 1 }), only(OutputStationary),
			"output buffer 1 KiB cannot hold 256x128 accumulators"},
		{"accumulators, shared L1", dense, cfg(func(c *arch.Config) {
			c.PEsX, c.PEsY, c.L1Config, c.L1OutputKiB = 2, 2, arch.Shared, 1
		}), only(OutputStationary),
			"output buffer 4 KiB cannot hold 256x128 accumulators"},
		{"weight tile", dense, cfg(func(c *arch.Config) { c.L1WeightKiB = 1 }), only(WeightStationary),
			"weight buffer 1 KiB cannot hold a 256x128 double-buffered tile"},
		{"input staging", dense, cfg(func(c *arch.Config) { c.L1InputKiB = 4 }), only(WeightStationary),
			"input buffer too small to stage 256-row operands"},
		{"output staging", dense, cfg(func(c *arch.Config) { c.L1OutputKiB = 2 }), only(WeightStationary),
			"output buffer too small to stage 128-col results"},
		{"degenerate", Problem{M: 512, N: 512, K: 0, Indep: 1, Bytes: 2}, cfg(func(*arch.Config) {}), only(WeightStationary),
			"degenerate problem"},
		{"no schemes", dense, cfg(func(*arch.Config) {}), Options{Schemes: []Scheme{}},
			"no schemes attempted"},
		// Every scheme fails: the first failure is the one reported.
		{"first failure wins", dense, cfg(func(c *arch.Config) { c.L1WeightKiB, c.L1OutputKiB = 1, 1 }), Options{},
			"weight buffer 1 KiB cannot hold a 256x128 double-buffered tile"},
	}
	for _, tc := range cases {
		m := Best(tc.p, tc.c, tc.o)
		if !m.Failed || m.Reason != tc.want {
			t.Errorf("%s: Best = failed %v, reason %q; want %q", tc.name, m.Failed, m.Reason, tc.want)
		}
		// A failed mapping carries nothing but its reason.
		if m.Scheme != WeightStationary || m.Cycles != 0 || m.ArrayUtil != 0 || m.PEUtil != 0 {
			t.Errorf("%s: failed mapping carries figures: %+v", tc.name, m)
		}
	}
	// A later success replaces an earlier failure, reason and all.
	m := Best(dense, cfg(func(*arch.Config) {}), Options{Schemes: []Scheme{Conv1D, WeightStationary}})
	if m.Failed || m.Reason != "" || m.Scheme != WeightStationary {
		t.Errorf("failure then success: %+v", m)
	}
}

// Utilization returns the end-to-end compute utilization (fraction of
// peak FLOPs) achieved during the op's compute phase.
func (m Mapping) Utilization() float64 { return m.ArrayUtil * m.PEUtil }

// FLOPs returns the problem's multiply-accumulate work ×2.
func (p Problem) FLOPs() int64 { return 2 * p.Indep * p.M * p.N * p.K }

// TestEffectiveSchemes checks the nil/empty distinction survives.
func TestEffectiveSchemes(t *testing.T) {
	if got := (Options{}).effectiveSchemes(); len(got) != len(allSchemes) {
		t.Errorf("nil Schemes: got %v, want full universe", got)
	}
	if got := (Options{Schemes: []Scheme{}}).effectiveSchemes(); len(got) != 0 {
		t.Errorf("empty Schemes: got %v, want none", got)
	}
	restricted := []Scheme{OutputStationary}
	if got := (Options{Schemes: restricted}).effectiveSchemes(); len(got) != 1 || got[0] != OutputStationary {
		t.Errorf("restricted Schemes: got %v", got)
	}
}
