package arch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// designNames lists the named reference designs ByName resolves.
func designNames() []string {
	return []string{"tpu-v3", "tpu-v3-dieshrink", "fast-large", "fast-small", "fast-decode"}
}

func TestNamedDesignsValidate(t *testing.T) {
	for _, name := range designNames() {
		c := ByName(name)
		if c == nil {
			t.Fatalf("ByName(%q) = nil", name)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if ByName("nope") != nil {
		t.Error("unknown design should be nil")
	}
}

func TestTPUv3Peaks(t *testing.T) {
	c := TPUv3()
	// §4.1: 123 TFLOP/s bf16 and 900 GB/s.
	if got := c.PeakFLOPs() / 1e12; math.Abs(got-123) > 1 {
		t.Errorf("TPU-v3 peak = %.1f TFLOP/s, want ≈123", got)
	}
	if got := c.PeakBandwidthGBs(); got != 900 {
		t.Errorf("TPU-v3 bandwidth = %.0f GB/s, want 900", got)
	}
	// §4.1: ridgepoint 137 FLOPs/B.
	if got := c.Ridgepoint(); math.Abs(got-137) > 2 {
		t.Errorf("TPU-v3 ridgepoint = %.1f, want ≈137", got)
	}
	// Table 5: per-core vector width 1024 (512 per PE × 2 PEs).
	if c.VPUWidth() != 512 {
		t.Errorf("TPU-v3 VPU width/PE = %d, want 512", c.VPUWidth())
	}
}

func TestFASTDesignPeaks(t *testing.T) {
	// Table 5: FAST-Large 131 TFLOP/s, 448 GB/s, ridgepoint 292;
	// FAST-Small 32 TFLOP/s, 448 GB/s, ridgepoint 73.
	fl := FASTLarge()
	if got := fl.PeakFLOPs() / 1e12; math.Abs(got-131) > 1 {
		t.Errorf("FAST-Large peak = %.1f TFLOP/s, want ≈131", got)
	}
	if got := fl.PeakBandwidthGBs(); got != 448 {
		t.Errorf("FAST-Large bandwidth = %.0f, want 448", got)
	}
	if got := fl.Ridgepoint(); math.Abs(got-292) > 3 {
		t.Errorf("FAST-Large ridgepoint = %.1f, want ≈292", got)
	}
	fs := FASTSmall()
	if got := fs.PeakFLOPs() / 1e12; math.Abs(got-32.8) > 1 {
		t.Errorf("FAST-Small peak = %.1f TFLOP/s, want ≈33", got)
	}
	if got := fs.Ridgepoint(); math.Abs(got-73) > 2 {
		t.Errorf("FAST-Small ridgepoint = %.1f, want ≈73", got)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := func(mut func(*Config)) *Config {
		c := FASTLarge()
		mut(c)
		return c
	}
	cases := map[string]*Config{
		"non-pow2 PEs":   bad(func(c *Config) { c.PEsX = 3 }),
		"PEs too big":    bad(func(c *Config) { c.PEsX = 512 }),
		"zero SA":        bad(func(c *Config) { c.SAy = 0 }),
		"vector mult 32": bad(func(c *Config) { c.VectorMult = 32 }),
		"L1 2MiB":        bad(func(c *Config) { c.L1InputKiB = 2048 }),
		"L1 disabled":    bad(func(c *Config) { c.L1Config = Disabled }),
		"bad L2 mult":    bad(func(c *Config) { c.L2Config = Private; c.L2InputMult = 0 }),
		"global 512":     bad(func(c *Config) { c.GlobalMiB = 512 }),
		"channels 16":    bad(func(c *Config) { c.MemChannels = 16 }),
		"batch 3":        bad(func(c *Config) { c.NativeBatch = 3 }),
		"no cores":       bad(func(c *Config) { c.Cores = 0 }),
		"zero clock":     bad(func(c *Config) { c.ClockGHz = 0 }),
	}
	for name, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestSpaceSize(t *testing.T) {
	// §5.3 estimates the datapath space at ~10^13.
	size := Space{}.Size()
	if size < 1e12 || size > 1e14 {
		t.Errorf("space size = %.2e, want ~1e13", size)
	}
}

// TestSpaceEffectiveSize checks EffectiveSize by counting: the distinct
// canonical vectors over every combination of the conditional
// dimensions (L2 config and its three multipliers), times the
// cardinality of the other twelve.
func TestSpaceEffectiveSize(t *testing.T) {
	s := Space{}
	dims := s.Dims()
	distinct := map[[NumParams]int]bool{}
	var idx [NumParams]int
	for l2 := 0; l2 < dims[PL2Config]; l2++ {
		for in := 0; in < dims[PL2InputMult]; in++ {
			for w := 0; w < dims[PL2WeightMult]; w++ {
				for out := 0; out < dims[PL2OutputMult]; out++ {
					idx[PL2Config], idx[PL2InputMult], idx[PL2WeightMult], idx[PL2OutputMult] = l2, in, w, out
					distinct[s.Canonical(idx)] = true
				}
			}
		}
	}
	if len(distinct) != 2*8*8*8+1 {
		t.Errorf("%d distinct settings of L2 and its multipliers, want 1,025", len(distinct))
	}
	rest := 1.0
	for d, card := range dims {
		switch d {
		case PL2Config, PL2InputMult, PL2WeightMult, PL2OutputMult:
		default:
			rest *= float64(card)
		}
	}
	if got, want := s.EffectiveSize(), rest*float64(len(distinct)); got != want {
		t.Errorf("EffectiveSize = %.6e, counting gives %.6e", got, want)
	}
	if got := s.EffectiveSize(); got != 32_223_629_790_000 {
		t.Errorf("EffectiveSize = %.0f, want 32,223,629,790,000 of %.0f vectors", got, s.Size())
	}
}

func TestSpaceDecodeValidates(t *testing.T) {
	// Every decodable point must pass Validate.
	s := Space{}
	r := rand.New(rand.NewSource(1))
	base := FASTLarge()
	for i := 0; i < 2000; i++ {
		c := s.Random(r, base)
		if err := c.Validate(); err != nil {
			t.Fatalf("random point invalid: %v\n%s", err, c)
		}
	}
}

func TestSpaceRoundTrip(t *testing.T) {
	// Property: Decode(Encode(c)) == c for in-domain configs.
	s := Space{}
	r := rand.New(rand.NewSource(2))
	base := FASTLarge()
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		c := s.Random(rr, base)
		idx := s.Encode(c)
		c2 := s.Decode(idx, base)
		return *c == *c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestEncodeClampsOutOfDomain(t *testing.T) {
	c := FASTLarge()
	c.PEsX = 1024 // out of domain
	idx := Space{}.Encode(c)
	if idx[PPEsX] != 8 {
		t.Errorf("clamp: idx = %d, want 8", idx[PPEsX])
	}
	c.GlobalMiB = 0
	if (Space{}).Encode(c)[PGlobal] != 0 {
		t.Error("global 0 must encode to index 0")
	}
}

func TestDecodePanicsOnBadIndex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var idx [NumParams]int
	idx[PPEsX] = 99
	Space{}.Decode(idx, FASTLarge())
}

func TestOnChipBytes(t *testing.T) {
	fl := FASTLarge()
	// 64 PEs × 24 KiB L1 + 128 MiB GM.
	want := int64(64*24<<10 + 128<<20)
	if got := fl.OnChipBytes(); got != want {
		t.Errorf("on-chip bytes = %d, want %d", got, want)
	}
	// L2 enabled adds capacity.
	c := fl.Clone("l2")
	c.L2Config = Shared
	c.L2InputMult, c.L2WeightMult, c.L2OutputMult = 4, 4, 4
	if c.OnChipBytes() <= fl.OnChipBytes() {
		t.Error("enabling L2 must add on-chip capacity")
	}
}

func TestScalarAndVectorPEDegenerations(t *testing.T) {
	// §5.4: scalar PEs (Eyeriss) = 1×1 arrays; vector PEs (Simba) = X
	// dim 1. Both must be expressible and valid.
	c := FASTLarge().Clone("scalar-pe")
	c.SAx, c.SAy = 1, 1
	c.L1Config = Private
	if err := c.Validate(); err != nil {
		t.Errorf("scalar PE config invalid: %v", err)
	}
	if c.MACsPerPE() != 1 {
		t.Errorf("scalar PE MACs = %d", c.MACsPerPE())
	}
	v := FASTLarge().Clone("vector-pe")
	v.SAx = 1
	v.SAy = 16
	if err := v.Validate(); err != nil {
		t.Errorf("vector PE config invalid: %v", err)
	}
}

func TestBufferConfigString(t *testing.T) {
	if Disabled.String() != "disabled" || Private.String() != "private" || Shared.String() != "shared" {
		t.Error("buffer config names wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FASTLarge()
	b := a.Clone("b")
	b.PEsX = 1
	if a.PEsX == 1 {
		t.Error("Clone shares state")
	}
	if b.Name != "b" {
		t.Error("Clone must rename")
	}
}

// OnChipBytes returns total per-core on-chip storage.
func (c *Config) OnChipBytes() int64 {
	return c.NumPEs()*(c.L1BytesPerPE()+c.L2BytesPerPE()) + c.GlobalBytes()
}

// Size returns the cardinality of the full datapath space (~10^13,
// matching §5.3).
func (s Space) Size() float64 {
	size := 1.0
	for _, d := range s.Dims() {
		size *= float64(d)
	}
	return size
}

// EffectiveSize returns the number of distinct designs in the space:
// Size counts index vectors, but with L2 disabled the three L2
// multipliers are dead, so those 8³ combinations decode to one design.
// It is 1,025/1,536 of Size, about 3.2·10^13.
func (s Space) EffectiveSize() float64 {
	d := s.Dims()
	mults := float64(d[PL2InputMult] * d[PL2WeightMult] * d[PL2OutputMult])
	return s.Size() / (float64(d[PL2Config]) * mults) * (float64(d[PL2Config]-1)*mults + 1)
}
