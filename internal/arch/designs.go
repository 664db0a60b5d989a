package arch

// Named reference designs.
//
// TPUv3 models the paper's baseline: a dual-core chip where each core
// carries two 128×128 systolic arrays (modeled as two PEs), a 1024-wide
// vector unit (512 lanes per PE), 64 KiB L1 buffers, a 16 MiB per-core
// global buffer, and 450 GB/s of HBM per core. Peak: 123 TFLOP/s bf16 and
// 900 GB/s aggregate, matching §4.1.
//
// FASTLarge and FASTSmall are the two EfficientNet-B7-optimized designs
// of Table 5. DieShrunkTPUv3 is the same datapath evaluated on the
// sub-10nm process (identical architecture; the power model applies the
// process scaling).

// TPUv3 returns the modeled TPU-v3 baseline.
func TPUv3() *Config {
	return &Config{
		Name: "tpu-v3",
		PEsX: 2, PEsY: 1,
		SAx: 128, SAy: 128,
		VectorMult: 4, // 512 lanes/PE → 1024-wide per core
		L1Config:   Shared,
		L1InputKiB: 64, L1WeightKiB: 64, L1OutputKiB: 64,
		L2Config:  Disabled,
		GlobalMiB: 16,
		// 2 HBM2 channels per core × 225 GB/s × 2 cores = 900 GB/s.
		MemChannels: 2, Mem: HBM2,
		NativeBatch: 64,
		Cores:       2,
		ClockGHz:    0.94,
	}
}

// DieShrunkTPUv3 returns the TPU-v3 datapath normalized to the same
// sub-10nm process as FAST designs (the Figure 10 / Table 5 baseline).
func DieShrunkTPUv3() *Config {
	c := TPUv3().Clone("tpu-v3-dieshrink")
	return c
}

// FASTLarge returns the FAST-Large design of Table 5: 64 PEs with 32×32
// systolic arrays (131 TFLOP/s peak), tiny 8 KiB L1s, a 128 MiB Global
// Memory, 448 GB/s GDDR6, and native batch 8.
func FASTLarge() *Config {
	return &Config{
		Name: "fast-large",
		PEsX: 8, PEsY: 8,
		SAx: 32, SAy: 32,
		VectorMult: 1, // 32 lanes/PE
		L1Config:   Shared,
		L1InputKiB: 8, L1WeightKiB: 8, L1OutputKiB: 8,
		L2Config:    Disabled,
		GlobalMiB:   128,
		MemChannels: 8, Mem: GDDR6, // 448 GB/s
		NativeBatch: 8,
		Cores:       1,
		ClockGHz:    1.0,
	}
}

// FASTSmall returns the FAST-Small design of Table 5: 8 PEs with 64×32
// arrays (33 TFLOP/s peak), 8 KiB L1s, an 8 MiB Global Memory, 448 GB/s
// GDDR6, and native batch 64. It avoids fusion entirely and instead
// balances compute against bandwidth (ridgepoint 73).
func FASTSmall() *Config {
	return &Config{
		Name: "fast-small",
		PEsX: 8, PEsY: 1,
		SAx: 64, SAy: 32,
		VectorMult: 1, // 64 lanes/PE
		L1Config:   Shared,
		L1InputKiB: 8, L1WeightKiB: 8, L1OutputKiB: 8,
		L2Config:    Disabled,
		GlobalMiB:   8,
		MemChannels: 8, Mem: GDDR6,
		NativeBatch: 64,
		Cores:       1,
		ClockGHz:    1.0,
	}
}

// FASTDecode returns a decode-tuned design for autoregressive serving:
// FAST-Large's datapath with the Global Memory grown to the 256 MiB
// ceiling of the Table 3 space — decode steps are dominated by reading
// per-layer KV-cache slabs, so capacity for held slabs buys more than
// extra compute — and native batch 1 (one token per request per step).
func FASTDecode() *Config {
	return &Config{
		Name: "fast-decode",
		PEsX: 8, PEsY: 8,
		SAx: 32, SAy: 32,
		VectorMult: 1,
		L1Config:   Shared,
		L1InputKiB: 8, L1WeightKiB: 8, L1OutputKiB: 8,
		L2Config:    Disabled,
		GlobalMiB:   256,
		MemChannels: 8, Mem: GDDR6,
		NativeBatch: 1,
		Cores:       1,
		ClockGHz:    1.0,
	}
}

// ByName returns a named design or nil.
func ByName(name string) *Config {
	switch name {
	case "tpu-v3":
		return TPUv3()
	case "tpu-v3-dieshrink":
		return DieShrunkTPUv3()
	case "fast-large":
		return FASTLarge()
	case "fast-small":
		return FASTSmall()
	case "fast-decode":
		return FASTDecode()
	}
	return nil
}
