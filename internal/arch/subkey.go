package arch

// Parameter-sliced config fingerprints.
//
// The factored evaluator in internal/sim memoizes per-design work across
// search trials by the sub-tuple of searched hyperparameters each stage
// actually reads: the schedule mapper sees only the PE grid, the systolic
// arrays, and the L1 scratchpads; the fusion stage sees every searched
// parameter but the native batch, which only selects the plan. SubKey packs such a sub-tuple into one comparable
// uint64 so a stage cache can be keyed exactly by what the stage reads —
// no more (a stale hit would be silently wrong) and no less (a too-wide
// key only costs hit rate).

// ParamMask selects a subset of the searched hyperparameters (the P*
// constants) for SubKey. Bit i selects parameter i.
type ParamMask uint32

// MaskOf builds a ParamMask from parameter indices.
func MaskOf(params ...int) ParamMask {
	var m ParamMask
	for _, p := range params {
		m |= 1 << p
	}
	return m
}

// Has reports whether the mask selects parameter p.
func (m ParamMask) Has(p int) bool { return m&(1<<p) != 0 }

// AllParams selects every searched hyperparameter.
const AllParams = ParamMask(1<<NumParams - 1)

// SubKey returns a compact fingerprint of the masked hyperparameters:
// each of the 16 searched parameters owns a fixed 4-bit slot (the Table 3
// domains are all ≤ 11 ordinal values), unmasked slots stay zero. Two
// validated configs agree on a SubKey if and only if they agree on every
// masked parameter, so the key is safe to memoize design-dependent work
// under — provided the mask covers every field the work reads.
//
// The encoding canonicalizes dead parameters: with L2 disabled the three
// L2 multipliers are not stored (they cannot affect any result, and
// reference designs leave them zero), and GlobalMiB 0 packs as slot
// value 0. The config must have passed Validate; out-of-domain values
// would alias.
func (c *Config) SubKey(mask ParamMask) uint64 {
	var k uint64
	put := func(p int, v uint64) {
		if mask.Has(p) {
			k |= v << (4 * p)
		}
	}
	put(PPEsX, uint64(log2(c.PEsX)))
	put(PPEsY, uint64(log2(c.PEsY)))
	put(PSAx, uint64(log2(c.SAx)))
	put(PSAy, uint64(log2(c.SAy)))
	put(PVectorMult, uint64(log2(c.VectorMult)))
	put(PL1Config, uint64(c.L1Config))
	put(PL1Input, uint64(log2(c.L1InputKiB)))
	put(PL1Weight, uint64(log2(c.L1WeightKiB)))
	put(PL1Output, uint64(log2(c.L1OutputKiB)))
	put(PL2Config, uint64(c.L2Config))
	if c.L2Config != Disabled {
		put(PL2InputMult, uint64(log2(c.L2InputMult)))
		put(PL2WeightMult, uint64(log2(c.L2WeightMult)))
		put(PL2OutputMult, uint64(log2(c.L2OutputMult)))
	}
	if c.GlobalMiB > 0 {
		put(PGlobal, uint64(log2(c.GlobalMiB))+1)
	}
	put(PChannels, uint64(log2(c.MemChannels)))
	put(PNativeBatch, uint64(log2(c.NativeBatch)))
	return k
}
