// Package arch defines the FAST accelerator datapath template (paper
// Table 3 / Figure 7): a grid of processing elements, each containing a
// systolic array and a vector processing unit, under a configurable
// memory hierarchy (per-PE L1 buffers, optional L2, optional shared
// Global Memory) fed by a configurable DRAM interface.
//
// The template is an approximate superset of published accelerator
// families: scalar-PE designs (Eyeriss) set the systolic dims to 1×1 with
// private L1s; vector-PE designs (Simba, EdgeTPU) set the X dim to 1;
// TPU-like designs use few PEs with large arrays, shared L1, no L2.
package arch

import (
	"fmt"
	"math/bits"
)

// BufferConfig selects the sharing discipline of a buffer level.
type BufferConfig int

const (
	// Disabled removes the level (valid only for L2).
	Disabled BufferConfig = iota
	// Private gives each PE its own buffer; data needed by several PEs is
	// duplicated into each.
	Private
	// Shared lets all PEs read one another's banks over the NoC, so
	// broadcast data is stored once.
	Shared
)

// String implements fmt.Stringer.
func (b BufferConfig) String() string {
	switch b {
	case Disabled:
		return "disabled"
	case Private:
		return "private"
	case Shared:
		return "shared"
	}
	return fmt.Sprintf("bufcfg(%d)", int(b))
}

// MemTech selects the DRAM technology. Table 3 searches over GDDR6
// channel counts; HBM2 is provided to model the TPU-v3 baseline.
type MemTech int

const (
	// GDDR6 provides 56 GB/s per channel (32-bit @ 14 Gb/s).
	GDDR6 MemTech = iota
	// HBM2 provides 225 GB/s per stack-channel (TPU-v3 has 4 → 900 GB/s).
	HBM2
)

// BandwidthPerChannelGBs returns the per-channel bandwidth of the
// technology in GB/s.
func (m MemTech) BandwidthPerChannelGBs() float64 {
	switch m {
	case GDDR6:
		return 56
	case HBM2:
		return 225
	}
	panic(fmt.Sprintf("arch: unknown memory technology %d", int(m)))
}

// String implements fmt.Stringer.
func (m MemTech) String() string {
	if m == GDDR6 {
		return "gddr6"
	}
	return "hbm2"
}

// Config is one point in the datapath search space (Table 3), plus the
// fixed platform attributes (cores, clock, memory technology) that the
// search does not mutate.
type Config struct {
	Name string

	// --- Searched hyperparameters (Table 3) ---

	// PEsX, PEsY define the PE grid (1..256, powers of 2).
	PEsX, PEsY int64
	// SAx, SAy are the per-PE systolic array dimensions (1..256, powers
	// of 2). A matrix-vector product of SAy rows × SAx cols issues each
	// cycle.
	SAx, SAy int64
	// VectorMult scales the per-PE VPU width as a multiple of SAx
	// (1..16, powers of 2).
	VectorMult int64
	// L1Config is Private or Shared.
	L1Config BufferConfig
	// L1InputKiB, L1WeightKiB, L1OutputKiB size the three per-PE L1
	// scratchpads (1..1024 KiB, powers of 2).
	L1InputKiB, L1WeightKiB, L1OutputKiB int64
	// L2Config is Disabled, Private or Shared.
	L2Config BufferConfig
	// L2InputMult, L2WeightMult, L2OutputMult size L2 as multiples of the
	// corresponding L1 buffer (1..128, powers of 2).
	L2InputMult, L2WeightMult, L2OutputMult int64
	// GlobalMiB sizes the shared Global Memory (0..256 MiB, powers of 2;
	// 0 disables it).
	GlobalMiB int64
	// MemChannels is the DRAM channel count (1..8, powers of 2).
	MemChannels int64
	// NativeBatch is the batch size the design serves (1..256, powers
	// of 2).
	NativeBatch int64

	// --- Fixed platform attributes ---

	// Cores replicates the whole datapath; aggregate throughput
	// multiplies, per-core resources do not (TPU-v3 is dual-core).
	Cores int64
	// ClockGHz is the core clock.
	ClockGHz float64
	// Mem selects DRAM technology.
	Mem MemTech
}

// NumPEs returns the per-core PE count.
func (c *Config) NumPEs() int64 { return c.PEsX * c.PEsY }

// MACsPerPE returns the per-PE multiply-accumulate units.
func (c *Config) MACsPerPE() int64 { return c.SAx * c.SAy }

// TotalMACs returns MACs across all cores.
func (c *Config) TotalMACs() int64 { return c.Cores * c.NumPEs() * c.MACsPerPE() }

// VPUWidth returns the per-PE vector unit lane count.
func (c *Config) VPUWidth() int64 { return c.VectorMult * c.SAx }

// TotalVPULanes returns VPU lanes across all cores.
func (c *Config) TotalVPULanes() int64 { return c.Cores * c.NumPEs() * c.VPUWidth() }

// PeakFLOPs returns peak FLOP/s across all cores (2 FLOPs per MAC per
// cycle).
func (c *Config) PeakFLOPs() float64 {
	return 2 * float64(c.TotalMACs()) * c.ClockGHz * 1e9
}

// PeakVectorOps returns peak VPU element ops/s across all cores.
func (c *Config) PeakVectorOps() float64 {
	return float64(c.TotalVPULanes()) * c.ClockGHz * 1e9
}

// PeakBandwidthGBs returns aggregate DRAM bandwidth in GB/s across all
// cores.
func (c *Config) PeakBandwidthGBs() float64 {
	return float64(c.Cores*c.MemChannels) * c.Mem.BandwidthPerChannelGBs()
}

// L1BytesPerPE returns the combined size of the three L1 buffers.
func (c *Config) L1BytesPerPE() int64 {
	return (c.L1InputKiB + c.L1WeightKiB + c.L1OutputKiB) << 10
}

// L2BytesPerPE returns the combined L2 size attributable to one PE (0 if
// disabled).
func (c *Config) L2BytesPerPE() int64 {
	if c.L2Config == Disabled {
		return 0
	}
	return (c.L1InputKiB*c.L2InputMult + c.L1WeightKiB*c.L2WeightMult +
		c.L1OutputKiB*c.L2OutputMult) << 10
}

// GlobalBytes returns the per-core Global Memory capacity in bytes.
func (c *Config) GlobalBytes() int64 { return c.GlobalMiB << 20 }

// Ridgepoint returns the operational intensity (FLOPs/byte) above which
// the design is compute- rather than bandwidth-bound (§4.1).
func (c *Config) Ridgepoint() float64 {
	bw := c.PeakBandwidthGBs() * 1e9
	if bw == 0 {
		return 0
	}
	return c.PeakFLOPs() / bw
}

func isPow2(v int64) bool { return v > 0 && v&(v-1) == 0 }

func pow2InRange(v, lo, hi int64) bool { return isPow2(v) && v >= lo && v <= hi }

// Validate checks every hyperparameter against the Table 3 domain.
func (c *Config) Validate() error {
	type rng struct {
		name   string
		v      int64
		lo, hi int64
	}
	checks := []rng{
		{"PEs_x_dim", c.PEsX, 1, 256},
		{"PEs_y_dim", c.PEsY, 1, 256},
		{"Systolic_array_x", c.SAx, 1, 256},
		{"Systolic_array_y", c.SAy, 1, 256},
		{"Vector_unit_multiplier", c.VectorMult, 1, 16},
		{"L1_input_buffer_size", c.L1InputKiB, 1, 1024},
		{"L1_weight_buffer_size", c.L1WeightKiB, 1, 1024},
		{"L1_output_buffer_size", c.L1OutputKiB, 1, 1024},
		{"GDDR6_channels", c.MemChannels, 1, 8},
		{"Native_batch_size", c.NativeBatch, 1, 256},
	}
	for _, ch := range checks {
		if !pow2InRange(ch.v, ch.lo, ch.hi) {
			return fmt.Errorf("arch(%s): %s = %d outside power-of-2 range [%d,%d]",
				c.Name, ch.name, ch.v, ch.lo, ch.hi)
		}
	}
	if c.L1Config != Private && c.L1Config != Shared {
		return fmt.Errorf("arch(%s): L1_buffer_config must be private or shared", c.Name)
	}
	switch c.L2Config {
	case Disabled:
	case Private, Shared:
		for _, m := range []int64{c.L2InputMult, c.L2WeightMult, c.L2OutputMult} {
			if !pow2InRange(m, 1, 128) {
				return fmt.Errorf("arch(%s): L2 multiplier %d outside power-of-2 range [1,128]", c.Name, m)
			}
		}
	default:
		return fmt.Errorf("arch(%s): bad L2_buffer_config", c.Name)
	}
	if c.GlobalMiB != 0 && !pow2InRange(c.GlobalMiB, 1, 256) {
		return fmt.Errorf("arch(%s): L3_global_buffer_size = %d MiB outside {0} ∪ power-of-2 [1,256]",
			c.Name, c.GlobalMiB)
	}
	if c.Cores < 1 {
		return fmt.Errorf("arch(%s): cores must be >= 1", c.Name)
	}
	if c.ClockGHz <= 0 {
		return fmt.Errorf("arch(%s): clock must be positive", c.Name)
	}
	return nil
}

// Clone returns a copy of the config with a new name.
func (c *Config) Clone(name string) *Config {
	out := *c
	out.Name = name
	return &out
}

// String summarizes the datapath.
func (c *Config) String() string {
	return fmt.Sprintf("%s: %dx%d PEs × SA %dx%d, VPU %d, L1 %d/%d/%d KiB (%s), L2 %s, GM %d MiB, %d ch %s, batch %d, %d core(s) @ %.2f GHz",
		c.Name, c.PEsX, c.PEsY, c.SAx, c.SAy, c.VPUWidth(),
		c.L1InputKiB, c.L1WeightKiB, c.L1OutputKiB, c.L1Config,
		c.L2Config, c.GlobalMiB, c.MemChannels, c.Mem, c.NativeBatch,
		c.Cores, c.ClockGHz)
}

// log2 returns floor(log2(v)) for v >= 1.
func log2(v int64) int { return 63 - bits.LeadingZeros64(uint64(v)) }
