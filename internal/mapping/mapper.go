package mapping

import (
	"fmt"
	"math"

	"fast/internal/arch"
	"fast/internal/tensor"
)

// Scheme identifies a mapping family (the "known-good mapping schemes"
// the paper's Vizier setup constrains the schedule space to, §5.3).
type Scheme int

const (
	// WeightStationary latches a K×N tile (K rows × N cols) and streams M.
	WeightStationary Scheme = iota
	// OutputStationary accumulates an M×N tile in place and streams K.
	OutputStationary
	// Conv1D latches K filter taps per column and streams outputs, one
	// independent output pixel per column (classic 1-D systolic
	// convolution); requires ConvLike problems.
	Conv1D
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case WeightStationary:
		return "weight-stationary"
	case OutputStationary:
		return "output-stationary"
	case Conv1D:
		return "conv-1d"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// allSchemes is the fixed scheme universe; Best iterates it directly so
// the per-op hot path of Plan.Evaluate allocates nothing.
var allSchemes = [...]Scheme{WeightStationary, OutputStationary, Conv1D}

// Options controls the mapper.
type Options struct {
	// Schemes restricts the mapping families searched (nil = all).
	Schemes []Scheme
}

// effectiveSchemes returns the scheme sequence Best actually iterates:
// the full universe when Schemes is nil, Schemes otherwise (including a
// non-nil empty slice, which maps nothing). The result aliases package
// or caller state and must be treated read-only.
func (o Options) effectiveSchemes() []Scheme {
	if o.Schemes == nil {
		return allSchemes[:]
	}
	return o.Schemes
}

// Mapping is the mapper's result for one problem on one datapath.
type Mapping struct {
	Scheme Scheme
	// Cycles is the per-core compute cycle count (already divided across
	// the PE grid).
	Cycles float64
	// ArrayUtil is the spatial efficiency on the systolic array in (0,1]:
	// active MACs / total MACs during streaming.
	ArrayUtil float64
	// PEUtil is the PE-grid occupancy in (0,1].
	PEUtil float64
	// Failed marks an unschedulable problem; Reason explains why.
	Failed bool
	Reason string
}

// paddedEff returns d / roundUp(d, tile): the utilization retained after
// the padding pre-pass pads dimension d up to a tile multiple.
func paddedEff(d, tile int64) float64 {
	if d <= 0 || tile <= 0 {
		return 0
	}
	return float64(d) / float64(tensor.RoundUp(d, tile))
}

// minStreamChunk is the smallest temporal chunk (cycles) worth splitting
// across PEs; below this, sequencing overhead dominates.
const minStreamChunk = 64

// fillCycles approximates pipeline fill/drain per scheduled pass.
func fillCycles(c *arch.Config) float64 { return float64(c.SAx + c.SAy) }

// failure is an unformatted schedule failure: the kind plus the figures
// its text quotes. Best formats only the failure it returns, so the
// schemes a successful mapping rejects cost no fmt.Sprintf.
type failure struct {
	kind    failKind
	a, b, c int64
}

type failKind uint8

const (
	failNone failKind = iota
	failNotConvLike
	failUnknownScheme
	failAccumulators  // a: output KiB, b: SAy, c: SAx
	failWeightTile    // a: weight KiB, b: SAy, c: SAx
	failInputStaging  // a: SAy
	failOutputStaging // a: SAx
	failDegenerate
)

// reason renders the failure's user-facing text.
func (f failure) reason() string {
	switch f.kind {
	case failNotConvLike:
		return "conv-1d requires a convolution-like problem"
	case failUnknownScheme:
		return "unknown scheme"
	case failAccumulators:
		return fmt.Sprintf("output buffer %d KiB cannot hold %dx%d accumulators", f.a, f.b, f.c)
	case failWeightTile:
		return fmt.Sprintf("weight buffer %d KiB cannot hold a %dx%d double-buffered tile", f.a, f.b, f.c)
	case failInputStaging:
		return fmt.Sprintf("input buffer too small to stage %d-row operands", f.a)
	case failOutputStaging:
		return fmt.Sprintf("output buffer too small to stage %d-col results", f.a)
	case failDegenerate:
		return "degenerate problem"
	}
	return "no schemes attempted"
}

// evalScheme costs one mapping scheme; a failure of any kind but
// failNone means the scheme cannot express the problem on this
// datapath, and the Mapping is then meaningless.
func evalScheme(p Problem, c *arch.Config, s Scheme) (Mapping, failure) {
	// Tile geometry per scheme: rows/cols spatial dims, streamed dim.
	var rowDim, colDim, streamDim int64
	switch s {
	case WeightStationary:
		rowDim, colDim, streamDim = p.K, p.N, p.M
	case OutputStationary:
		rowDim, colDim, streamDim = p.M, p.N, p.K
	case Conv1D:
		if !p.ConvLike {
			return Mapping{}, failure{kind: failNotConvLike}
		}
		// K taps per column; columns hold independent output pixels; the
		// N output channels are temporal.
		rowDim, colDim, streamDim = p.K, p.M, p.M
	default:
		return Mapping{}, failure{kind: failUnknownScheme}
	}

	// Buffer feasibility: one latched tile (double-buffered) must fit the
	// weight scratchpad; streaming staging must fit input/output
	// scratchpads. Under a Shared L1 the PEs pool their banks.
	l1Scale := int64(1)
	if c.L1Config == arch.Shared {
		l1Scale = c.NumPEs()
	}
	tileBytes := c.SAx * c.SAy * p.Bytes * 2 // double buffer
	if s == Conv1D {
		tileBytes = c.SAy * c.SAx * p.Bytes // one tap set per column group
	}
	wBuf := (c.L1WeightKiB << 10) * l1Scale
	if s == OutputStationary {
		// Accumulators live in the output scratchpad instead.
		if (c.L1OutputKiB<<10)*l1Scale < c.SAx*c.SAy*4 { // fp32 accumulate
			return Mapping{}, failure{failAccumulators, c.L1OutputKiB * l1Scale, c.SAy, c.SAx}
		}
	} else if wBuf < tileBytes {
		return Mapping{}, failure{failWeightTile, c.L1WeightKiB * l1Scale, c.SAy, c.SAx}
	}
	if (c.L1InputKiB<<10)*l1Scale < c.SAy*p.Bytes*2*8 {
		return Mapping{}, failure{kind: failInputStaging, a: c.SAy}
	}
	if (c.L1OutputKiB<<10)*l1Scale < c.SAx*p.Bytes*2*8 {
		return Mapping{}, failure{kind: failOutputStaging, a: c.SAx}
	}

	// Spatial efficiency from the padding pre-pass.
	rowEff := paddedEff(rowDim, min64(rowDim, c.SAy))
	colEff := paddedEff(colDim, min64(colDim, c.SAx))
	rowEff *= float64(min64(rowDim, c.SAy)) / float64(c.SAy)
	colEff *= float64(min64(colDim, c.SAx)) / float64(c.SAx)
	// Combined: fraction of array MACs doing real work while streaming.
	arrayUtil := rowEff * colEff
	if arrayUtil <= 0 {
		return Mapping{}, failure{kind: failDegenerate}
	}

	// Work decomposition: units = independent latched tiles; each unit
	// streams streamDim elements (one per cycle).
	tilesRow := tensor.CeilDiv(rowDim, c.SAy)
	tilesCol := tensor.CeilDiv(colDim, c.SAx)
	units := p.Indep * tilesRow * tilesCol
	if s == Conv1D {
		// SAx columns emit SAx output pixels per cycle, so one unit (one
		// K-tile of one instance and output channel) streams all M
		// outputs in ceil(M/SAx) cycles; output channels multiply the
		// unit count.
		units = p.Indep * p.N * tilesRow
		streamDim = tensor.CeilDiv(p.M, c.SAx)
	}

	// Latch floor: with double buffering a unit cannot finish faster than
	// the tile reload (SAy cycles).
	unitCycles := math.Max(float64(streamDim), float64(c.SAy))
	latchPenalty := unitCycles / float64(streamDim)

	// PE-grid parallelism: units are independent; long streams may also
	// be split at minStreamChunk granularity.
	splits := math.Max(1, math.Floor(unitCycles/minStreamChunk))
	maxPar := float64(units) * splits
	pes := float64(c.NumPEs())
	usable := math.Min(pes, maxPar)
	totalStream := float64(units) * unitCycles
	cycles := totalStream / usable
	if cycles < minStreamChunk {
		cycles = minStreamChunk
	}
	cycles += fillCycles(c)

	return Mapping{
		Scheme:    s,
		Cycles:    cycles,
		ArrayUtil: arrayUtil / latchPenalty,
		PEUtil:    usable / pes,
	}, failure{}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Best maps the problem with every permitted scheme and returns the one
// with the fewest cycles (the earlier scheme on a tie). The result is
// Failed only if every scheme fails, and then carries the first
// failure's reason ("no schemes attempted" when there was none).
func Best(p Problem, c *arch.Config, o Options) Mapping {
	var best Mapping
	found := false
	var first failure
	for _, s := range o.effectiveSchemes() {
		m, f := evalScheme(p, c, s)
		if f.kind != failNone {
			if first.kind == failNone {
				first = f
			}
			continue
		}
		if !found || m.Cycles < best.Cycles {
			best, found = m, true
		}
	}
	if !found {
		return Mapping{Failed: true, Reason: first.reason()}
	}
	return best
}

// TrafficFloor returns the minimum DRAM bytes for the problem given
// effective on-chip capacity capBytes, from the blocked-matmul I/O lower
// bound: ~2·M·N·K·b/√(S/b) words beyond the compulsory traffic when the
// working set exceeds capacity. The caller compares this floor with the
// fusion-region compulsory traffic and takes the max.
func TrafficFloor(p Problem, capBytes int64) int64 {
	if capBytes <= 0 {
		capBytes = 1 << 10
	}
	compulsory := p.ActivationBytes() + p.StationaryBytes() + p.OutputBytes()
	working := compulsory
	if working <= capBytes {
		return compulsory
	}
	words := float64(capBytes) / float64(p.Bytes)
	blocked := 2 * float64(p.Indep) * float64(p.M) * float64(p.N) * float64(p.K) *
		float64(p.Bytes) / math.Sqrt(words)
	if blocked < float64(compulsory) {
		return compulsory
	}
	return int64(blocked)
}
