package arch

import (
	"fmt"
	"math/rand"
)

// Space is the Table 3 datapath search space: 16 hyperparameters, each an
// index into a small ordinal domain. Optimizers manipulate index vectors;
// Decode turns a vector into a Config (inheriting fixed platform
// attributes from a base config).
type Space struct{}

// Parameter indices into the hyperparameter vector.
const (
	PPEsX = iota
	PPEsY
	PSAx
	PSAy
	PVectorMult
	PL1Config
	PL1Input
	PL1Weight
	PL1Output
	PL2Config
	PL2InputMult
	PL2WeightMult
	PL2OutputMult
	PGlobal
	PChannels
	PNativeBatch
	NumParams
)

// ParamNames mirrors Table 3's parameter names, indexed by the P*
// constants.
var ParamNames = [NumParams]string{
	"PEs_x_dim", "PEs_y_dim", "Systolic_array_x", "Systolic_array_y",
	"Vector_unit_multiplier", "L1_buffer_config", "L1_input_buffer_size",
	"L1_weight_buffer_size", "L1_output_buffer_size", "L2_buffer_config",
	"L2_input_buffer_multiplier", "L2_weight_buffer_multiplier",
	"L2_output_buffer_multiplier", "L3_global_buffer_size",
	"GDDR6_channels", "Native_batch_size",
}

// Dims returns the cardinality of each parameter's domain.
func (Space) Dims() [NumParams]int {
	return [NumParams]int{
		9,  // PEs x: 1..256 pow2
		9,  // PEs y
		9,  // SA x
		9,  // SA y
		5,  // vector mult: 1..16 pow2
		2,  // L1 config: private, shared
		11, // L1 input KiB: 1..1024 pow2
		11, // L1 weight KiB
		11, // L1 output KiB
		3,  // L2 config: disabled, private, shared
		8,  // L2 input mult: 1..128 pow2
		8,  // L2 weight mult
		8,  // L2 output mult
		10, // global MiB: 0, 1..256 pow2
		4,  // channels: 1..8 pow2
		9,  // native batch: 1..256 pow2
	}
}

// Canonical returns idx with its dead coordinates zeroed: with L2
// disabled, the three L2 multipliers. Two vectors are canonically equal
// exactly when their designs' SubKeys are, so one evaluation
// serves every alias of a design.
func (Space) Canonical(idx [NumParams]int) [NumParams]int {
	if idx[PL2Config] == 0 {
		idx[PL2InputMult], idx[PL2WeightMult], idx[PL2OutputMult] = 0, 0, 0
	}
	return idx
}

// Decode materializes a Config from an index vector, inheriting Name,
// Cores, ClockGHz and Mem from base. It panics on out-of-range indices
// (optimizers must respect Dims).
func (s Space) Decode(idx [NumParams]int, base *Config) *Config {
	dims := s.Dims()
	for i, v := range idx {
		if v < 0 || v >= dims[i] {
			panic(fmt.Sprintf("arch: index %d for %s outside [0,%d)", v, ParamNames[i], dims[i]))
		}
	}
	c := *base
	c.PEsX = 1 << idx[PPEsX]
	c.PEsY = 1 << idx[PPEsY]
	c.SAx = 1 << idx[PSAx]
	c.SAy = 1 << idx[PSAy]
	c.VectorMult = 1 << idx[PVectorMult]
	c.L1Config = BufferConfig(idx[PL1Config] + 1) // 0→Private, 1→Shared
	c.L1InputKiB = 1 << idx[PL1Input]
	c.L1WeightKiB = 1 << idx[PL1Weight]
	c.L1OutputKiB = 1 << idx[PL1Output]
	c.L2Config = BufferConfig(idx[PL2Config]) // 0→Disabled, 1→Private, 2→Shared
	c.L2InputMult = 1 << idx[PL2InputMult]
	c.L2WeightMult = 1 << idx[PL2WeightMult]
	c.L2OutputMult = 1 << idx[PL2OutputMult]
	if idx[PGlobal] == 0 {
		c.GlobalMiB = 0
	} else {
		c.GlobalMiB = 1 << (idx[PGlobal] - 1)
	}
	c.MemChannels = 1 << idx[PChannels]
	c.NativeBatch = 1 << idx[PNativeBatch]
	return &c
}

// Encode converts a Config back into its index vector. Values outside the
// Table 3 domain are clamped to the nearest member, which lets reference
// designs seed the search.
func (s Space) Encode(c *Config) [NumParams]int {
	var idx [NumParams]int
	clampLog := func(v int64, maxIdx int) int {
		if v < 1 {
			return 0
		}
		l := log2(v)
		if l > maxIdx {
			return maxIdx
		}
		return l
	}
	idx[PPEsX] = clampLog(c.PEsX, 8)
	idx[PPEsY] = clampLog(c.PEsY, 8)
	idx[PSAx] = clampLog(c.SAx, 8)
	idx[PSAy] = clampLog(c.SAy, 8)
	idx[PVectorMult] = clampLog(c.VectorMult, 4)
	if c.L1Config == Shared {
		idx[PL1Config] = 1
	}
	idx[PL1Input] = clampLog(c.L1InputKiB, 10)
	idx[PL1Weight] = clampLog(c.L1WeightKiB, 10)
	idx[PL1Output] = clampLog(c.L1OutputKiB, 10)
	idx[PL2Config] = int(c.L2Config)
	idx[PL2InputMult] = clampLog(c.L2InputMult, 7)
	idx[PL2WeightMult] = clampLog(c.L2WeightMult, 7)
	idx[PL2OutputMult] = clampLog(c.L2OutputMult, 7)
	if c.GlobalMiB > 0 {
		idx[PGlobal] = clampLog(c.GlobalMiB, 8) + 1
	}
	idx[PChannels] = clampLog(c.MemChannels, 3)
	idx[PNativeBatch] = clampLog(c.NativeBatch, 8)
	return idx
}

// Random samples a uniform point from the space.
func (s Space) Random(r *rand.Rand, base *Config) *Config {
	var idx [NumParams]int
	for i, d := range s.Dims() {
		idx[i] = r.Intn(d)
	}
	return s.Decode(idx, base)
}
