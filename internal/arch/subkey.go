package arch

// Design fingerprints.
//
// The evaluator in internal/sim memoizes each design's mapping and
// fusion work per compiled plan, keyed on the whole design. SubKey packs
// the searched part of that key into one comparable uint64.

// SubKey returns a compact fingerprint of the 16 searched
// hyperparameters: each owns a fixed 4-bit slot (the Table 3 domains
// are all ≤ 11 ordinal values). Two validated configs agree on a SubKey
// if and only if they agree on every live searched parameter. The fixed
// platform attributes (Cores, ClockGHz, Mem) and Name are not packed.
//
// The encoding canonicalizes dead parameters: with L2 disabled the three
// L2 multipliers are not stored (they cannot affect any result, and
// reference designs leave them zero), and GlobalMiB 0 packs as slot
// value 0. The config must have passed Validate; out-of-domain values
// would alias.
func (c *Config) SubKey() uint64 {
	var k uint64
	put := func(p int, v uint64) { k |= v << (4 * p) }
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
