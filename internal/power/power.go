// Package power is the analytical area and TDP model.
//
// The paper uses "analytical models correlated to production designs on
// an industry sub-10nm process"; those coefficients are proprietary, so
// this package uses public-ballpark per-component constants chosen so the
// modeled die-shrunk TPU-v3 lands at the paper's normalized operating
// point (TDP = 0.5× and area = 0.6× of the search constraint budget,
// Table 5) and FAST-Large/FAST-Small land near their published 0.4×/0.15×
// TDP and 0.7×/0.3× area. Only normalized ratios are ever reported, so
// any internally consistent linear component model preserves the paper's
// results.
//
// TDP follows the paper's power-virus definition: every component is
// charged at 100% utilization simultaneously.
package power

import (
	"math"

	"fast/internal/arch"
)

// Model carries the per-component coefficients. Use Default() unless an
// experiment explicitly perturbs a coefficient.
type Model struct {
	// MACPowerW is watts per multiply-accumulate unit at 1 GHz, 100%
	// toggle (bf16).
	MACPowerW float64
	// MACAreaMM2 is area per MAC in mm².
	MACAreaMM2 float64
	// VPULanePowerW / VPULaneAreaMM2 cost one vector lane (a full ALU
	// with transcendental support — several times a MAC).
	VPULanePowerW  float64
	VPULaneAreaMM2 float64
	// SRAMPowerWPerMiB / SRAMAreaMM2PerMiB cost on-chip SRAM (leakage +
	// continuous-access dynamic power under the power-virus assumption).
	SRAMPowerWPerMiB  float64
	SRAMAreaMM2PerMiB float64
	// SmallBufferPowerFactor scales SRAM power for the L1/L2 scratchpads,
	// which sustain full-width accesses every cycle (wide ports cost
	// power; this is why the paper notes enabling L2 raises TDP even when
	// it would cut dynamic energy).
	SmallBufferPowerFactor float64
	// HBMPowerWPerGBs / GDDR6PowerWPerGBs cost the DRAM interface per
	// GB/s of peak bandwidth (PHY + controller + device I/O at the
	// accelerator boundary).
	HBMPowerWPerGBs   float64
	GDDR6PowerWPerGBs float64
	// HBMAreaMM2PerGBs / GDDR6AreaMM2PerGBs cost PHY beachfront area.
	HBMAreaMM2PerGBs   float64
	GDDR6AreaMM2PerGBs float64
	// NoCPowerWPerPE / NoCAreaMM2PerPE cost the mesh interconnect.
	NoCPowerWPerPE  float64
	NoCAreaMM2PerPE float64
	// FixedPowerW / FixedAreaMM2 cover sequencers, host interface, PCIe,
	// clocking — per core.
	FixedPowerW  float64
	FixedAreaMM2 float64
	// AreaOverheadFactor accounts for floorplan white space and wiring.
	AreaOverheadFactor float64
}

// Default returns the calibrated sub-10nm model.
func Default() *Model {
	return &Model{
		MACPowerW:              1.5e-3,
		MACAreaMM2:             8e-4,
		VPULanePowerW:          6e-3,
		VPULaneAreaMM2:         4e-3,
		SRAMPowerWPerMiB:       0.30,
		SRAMAreaMM2PerMiB:      0.55,
		SmallBufferPowerFactor: 2.0,
		HBMPowerWPerGBs:        0.15,
		GDDR6PowerWPerGBs:      0.10,
		HBMAreaMM2PerGBs:       0.030,
		GDDR6AreaMM2PerGBs:     0.040,
		NoCPowerWPerPE:         0.10,
		NoCAreaMM2PerPE:        0.06,
		FixedPowerW:            15.0,
		FixedAreaMM2:           20.0,
		AreaOverheadFactor:     1.10,
	}
}

// Breakdown itemizes TDP and area per component (watts, mm²), aggregated
// over all cores.
type Breakdown struct {
	MACPower, VPUPower, SRAMPower, DRAMPower, NoCPower, FixedPower float64
	MACArea, VPUArea, SRAMArea, DRAMArea, NoCArea, FixedArea       float64
}

// TotalPower sums the power components (the design's TDP in watts).
func (b Breakdown) TotalPower() float64 {
	return b.MACPower + b.VPUPower + b.SRAMPower + b.DRAMPower + b.NoCPower + b.FixedPower
}

// TotalArea sums the area components in mm² (overhead already applied).
func (b Breakdown) TotalArea() float64 {
	return b.MACArea + b.VPUArea + b.SRAMArea + b.DRAMArea + b.NoCArea + b.FixedArea
}

// Evaluate computes the power-virus TDP and die area of a datapath.
func (m *Model) Evaluate(c *arch.Config) Breakdown {
	var b Breakdown
	clockScale := c.ClockGHz // dynamic power ∝ frequency (1 GHz reference)

	macs := float64(c.TotalMACs())
	b.MACPower = macs * m.MACPowerW * clockScale
	b.MACArea = macs * m.MACAreaMM2

	lanes := float64(c.TotalVPULanes())
	b.VPUPower = lanes * m.VPULanePowerW * clockScale
	b.VPUArea = lanes * m.VPULaneAreaMM2

	// SRAM: Global Memory at base cost; L1/L2 scratchpads at the wide-port
	// factor (full-width accesses every cycle under the power virus).
	globalMiB := float64(c.Cores*c.GlobalBytes()) / (1 << 20)
	bufMiB := float64(c.Cores*c.NumPEs()*(c.L1BytesPerPE()+c.L2BytesPerPE())) / (1 << 20)
	b.SRAMPower = (globalMiB + bufMiB*m.SmallBufferPowerFactor) * m.SRAMPowerWPerMiB * clockScale
	b.SRAMArea = (globalMiB + bufMiB) * m.SRAMAreaMM2PerMiB

	bw := c.PeakBandwidthGBs()
	switch c.Mem {
	case arch.HBM2:
		b.DRAMPower = bw * m.HBMPowerWPerGBs
		b.DRAMArea = bw * m.HBMAreaMM2PerGBs
	default:
		b.DRAMPower = bw * m.GDDR6PowerWPerGBs
		b.DRAMArea = bw * m.GDDR6AreaMM2PerGBs
	}

	pes := float64(c.Cores * c.NumPEs())
	// NoC power grows slightly superlinearly with mesh size (longer
	// average routes).
	b.NoCPower = pes * m.NoCPowerWPerPE * math.Sqrt(math.Max(1, pes/4)) * clockScale
	b.NoCArea = pes * m.NoCAreaMM2PerPE

	b.FixedPower = float64(c.Cores) * m.FixedPowerW
	b.FixedArea = float64(c.Cores) * m.FixedAreaMM2

	b.MACArea *= m.AreaOverheadFactor
	b.VPUArea *= m.AreaOverheadFactor
	b.SRAMArea *= m.AreaOverheadFactor
	b.NoCArea *= m.AreaOverheadFactor
	b.DRAMArea *= m.AreaOverheadFactor
	b.FixedArea *= m.AreaOverheadFactor
	return b
}

// TDP returns the design's thermal design power in watts.
func (m *Model) TDP(c *arch.Config) float64 { return m.Evaluate(c).TotalPower() }

// Budget is the search constraint envelope (Eq. 4). The paper gives FAST
// a budget "similar to the current-generation TPU-v3 but on a new process
// technology"; Table 5 then reports the die-shrunk TPU-v3 at 0.5× the TDP
// budget and 0.6× the area budget. DefaultBudget derives the absolute
// budget from the modeled baseline so those normalizations hold exactly.
type Budget struct {
	MaxTDPW    float64
	MaxAreaMM2 float64
}

// DefaultBudget returns the constraint envelope anchored to the die-shrunk
// TPU-v3 at (0.5 TDP, 0.6 area).
func DefaultBudget(m *Model) Budget {
	base := m.Evaluate(arch.DieShrunkTPUv3())
	return Budget{
		MaxTDPW:    base.TotalPower() / 0.5,
		MaxAreaMM2: base.TotalArea() / 0.6,
	}
}

// Within reports whether the design fits the budget.
func (b Budget) Within(m *Model, c *arch.Config) bool {
	eval := m.Evaluate(c)
	return eval.TotalPower() <= b.MaxTDPW && eval.TotalArea() <= b.MaxAreaMM2
}
