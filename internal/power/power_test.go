package power

import (
	"math/rand"
	"testing"

	"fast/internal/arch"
)

func TestCalibrationPoints(t *testing.T) {
	// Table 5 normalized points: TPU-v3 (0.5 TDP, 0.6 area), FAST-Large
	// (0.4, 0.7), FAST-Small (0.15, 0.3). The TPU point is exact by
	// construction of DefaultBudget; the FAST points must land within a
	// loose band (the paper reports one decimal place).
	m := Default()
	b := DefaultBudget(m)

	check := func(name string, c *arch.Config, wantTDP, wantArea, tol float64) {
		e := m.Evaluate(c)
		gotTDP := e.TotalPower() / b.MaxTDPW
		gotArea := e.TotalArea() / b.MaxAreaMM2
		if gotTDP < wantTDP-tol || gotTDP > wantTDP+tol {
			t.Errorf("%s normalized TDP = %.3f, want %.2f±%.2f", name, gotTDP, wantTDP, tol)
		}
		if gotArea < wantArea-tol || gotArea > wantArea+tol {
			t.Errorf("%s normalized area = %.3f, want %.2f±%.2f", name, gotArea, wantArea, tol)
		}
	}
	check("tpu-v3", arch.DieShrunkTPUv3(), 0.5, 0.6, 0.001)
	check("fast-large", arch.FASTLarge(), 0.4, 0.7, 0.12)
	check("fast-small", arch.FASTSmall(), 0.15, 0.3, 0.08)
}

func TestBreakdownSums(t *testing.T) {
	m := Default()
	e := m.Evaluate(arch.FASTLarge())
	sumP := e.MACPower + e.VPUPower + e.SRAMPower + e.DRAMPower + e.NoCPower + e.FixedPower
	if sumP != e.TotalPower() {
		t.Error("power breakdown does not sum")
	}
	sumA := e.MACArea + e.VPUArea + e.SRAMArea + e.DRAMArea + e.NoCArea + e.FixedArea
	if sumA != e.TotalArea() {
		t.Error("area breakdown does not sum")
	}
}

func TestMonotonicity(t *testing.T) {
	// Growing any resource must not decrease TDP or area.
	m := Default()
	base := arch.FASTLarge()
	grow := []func(*arch.Config){
		func(c *arch.Config) { c.PEsX *= 2 },
		func(c *arch.Config) { c.SAx *= 2 },
		func(c *arch.Config) { c.VectorMult *= 2 },
		func(c *arch.Config) { c.L1InputKiB *= 4 },
		func(c *arch.Config) { c.GlobalMiB *= 2 },
		func(c *arch.Config) {
			c.L2Config = arch.Shared
			c.L2InputMult, c.L2WeightMult, c.L2OutputMult = 8, 8, 8
		},
	}
	baseTDP, baseArea := m.TDP(base), m.Area(base)
	for i, g := range grow {
		c := base.Clone("grown")
		g(c)
		if m.TDP(c) < baseTDP {
			t.Errorf("grow[%d]: TDP decreased %.1f → %.1f", i, baseTDP, m.TDP(c))
		}
		if m.Area(c) < baseArea {
			t.Errorf("grow[%d]: area decreased", i)
		}
	}
}

func TestL2RaisesTDP(t *testing.T) {
	// §6.2.5: "although L2 buffers may reduce dynamic power ... they
	// increase overall TDP when assuming maximum buffer accesses per
	// cycle". Enabling L2 must strictly raise TDP.
	m := Default()
	base := arch.FASTLarge()
	withL2 := base.Clone("l2")
	withL2.L2Config = arch.Private
	withL2.L2InputMult, withL2.L2WeightMult, withL2.L2OutputMult = 2, 2, 2
	if m.TDP(withL2) <= m.TDP(base) {
		t.Error("enabling L2 must raise power-virus TDP")
	}
}

func TestHBMCostsMoreThanGDDR6(t *testing.T) {
	m := Default()
	g := arch.FASTLarge()
	h := g.Clone("hbm")
	h.Mem = arch.HBM2
	h.MemChannels = 2 // 450 GB/s, similar to 448 GB/s GDDR6
	eg, eh := m.Evaluate(g), m.Evaluate(h)
	if eh.DRAMPower <= eg.DRAMPower {
		t.Error("HBM at similar bandwidth should cost more interface power per the model")
	}
}

func TestBudgetWithin(t *testing.T) {
	m := Default()
	b := DefaultBudget(m)
	for _, name := range []string{"tpu-v3-dieshrink", "fast-large", "fast-small"} {
		if !b.Within(m, arch.ByName(name)) {
			t.Errorf("%s should fit the default budget", name)
		}
	}
	// A maxed-out design must exceed the budget.
	huge := arch.FASTLarge().Clone("huge")
	huge.PEsX, huge.PEsY, huge.SAx, huge.SAy = 256, 256, 256, 256
	if b.Within(m, huge) {
		t.Error("256×256 PEs of 256×256 arrays cannot fit any sane budget")
	}
}

func TestRandomDesignsPositive(t *testing.T) {
	// Property: every random design has positive TDP and area, and both
	// scale with core count.
	m := Default()
	s := arch.Space{}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		c := s.Random(r, arch.FASTLarge())
		e := m.Evaluate(c)
		if e.TotalPower() <= 0 || e.TotalArea() <= 0 {
			t.Fatalf("non-positive evaluation for %s", c)
		}
		dual := c.Clone("dual")
		dual.Cores = 2
		if m.TDP(dual) <= m.TDP(c) || m.Area(dual) <= m.Area(c) {
			t.Fatal("adding a core must increase TDP and area")
		}
	}
}

// Area returns the design's die area in mm².
func (m *Model) Area(c *arch.Config) float64 { return m.Evaluate(c).TotalArea() }
