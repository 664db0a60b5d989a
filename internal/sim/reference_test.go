package sim

// referenceSimulate is a frozen, verbatim copy of the monolithic
// pre-split simulator (the simulate() that Simulate wrapped before the
// Compile/Evaluate refactor). It exists only as the independent oracle
// for the differential property test: Simulate is now itself implemented
// as Compile+Evaluate, so comparing the two against each other alone
// would let a shared arithmetic regression slip through. Any change to
// the evaluate hot path must still reproduce THIS code bit for bit; do
// not "improve" it.

import (
	"fmt"

	"fast/internal/arch"
	"fast/internal/fusion"
	"fast/internal/hlo"
	"fast/internal/mapping"
	"fast/internal/power"
	"fast/internal/vpu"
)

func referenceSimulate(g *hlo.Graph, cfg *arch.Config, opts Options) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if opts.AutoSoftmax {
		a := referenceSimulateAlg(g, cfg, opts, vpu.ThreePass)
		b := referenceSimulateAlg(g, cfg, opts, vpu.TwoPass)
		if !b.ScheduleFailed && (a.ScheduleFailed || b.LatencySec < a.LatencySec) {
			return b, nil
		}
		return a, nil
	}
	alg := vpu.ThreePass
	if opts.TwoPassSoftmax {
		alg = vpu.TwoPass
	}
	return referenceSimulateAlg(g, cfg, opts, alg), nil
}

func referenceSimulateAlg(g *hlo.Graph, cfg *arch.Config, opts Options, alg vpu.SoftmaxAlgorithm) *Result {
	res := &Result{Graph: g, Config: cfg, SoftmaxAlgorithm: alg}

	part := hlo.PartitionXLA(g)

	perCoreBW := cfg.PeakBandwidthGBs() * 1e9 / float64(cfg.Cores)
	clock := cfg.ClockGHz * 1e9

	capBytes := cfg.GlobalBytes()
	if capBytes == 0 {
		capBytes = cfg.NumPEs() * cfg.L2BytesPerPE()
	}
	if capBytes == 0 {
		capBytes = cfg.NumPEs() * cfg.L1BytesPerPE()
	}

	mapCache := make(map[mapping.Problem]mapping.Mapping)

	regionOrder := part.Regions
	costs := make([]fusion.RegionCost, len(regionOrder))
	stats := make([]RegionStats, len(regionOrder))
	var totalFLOPs, matrixFLOPs int64

	for ri, r := range regionOrder {
		io := part.IO(r)
		var matrixSec, vectorSec, serialSec float64
		var extraBytes int64
		pinnable := true
		shares := make([]OpShare, 0, len(r.Ops))

		for _, op := range r.Ops {
			var opSec float64
			var opExtra int64
			if opts.DepthwiseOnVPU && op.Kind == hlo.KDepthwiseConv2D {
				macs := float64(hlo.FLOPs(op)) / 2
				opSec = vpu.Time(macs/dwVPUEff, cfg)
				vectorSec += opSec
			} else if p, ok := mapping.FromOp(op); ok {
				m, hit := mapCache[p]
				if !hit {
					m = mapping.Best(p, cfg, opts.Mapping)
					mapCache[p] = m
				}
				if m.Failed {
					res.ScheduleFailed = true
					res.FailReason = fmt.Sprintf("op %q: %s", op.Name, m.Reason)
					return res
				}
				opSec = m.Cycles / clock
				opExtra = mapping.TrafficFloor(p, capBytes) -
					(p.ActivationBytes() + p.StationaryBytes() + p.OutputBytes())
				if !p.WeightsStationary {
					pinnable = false
				}
				matrixSec += opSec
				if op.Kind == hlo.KLSTMCell {
					gates := vpu.Time(vpu.LSTMGateOps(op), cfg)
					vectorSec += gates
					opSec += gates
				}
			} else {
				softmaxFits := true
				if op.Kind == hlo.KSoftmax {
					softmaxFits = op.Output.Bytes()*2 <= capBytes
				}
				c := vpu.OpCost(op, alg, softmaxFits)
				opSec = vpu.Time(c.VectorOps, cfg)
				opExtra = c.ExtraDRAMBytes
				if isSerialVec(op.Kind) {
					serialSec += opSec
				} else {
					vectorSec += opSec
				}
			}
			extraBytes += opExtra
			shares = append(shares, OpShare{Op: op, IntrinsicSec: opSec + float64(opExtra)/perCoreBW})
		}
		computeSec := maxf(matrixSec, vectorSec) + serialSec
		if matrixSec > 0 && vectorSec > 0 {
			factor := 0.0
			if vectorSec > matrixSec {
				factor = (vectorSec - matrixSec) / vectorSec
			}
			for si := range shares {
				op := shares[si].Op
				if !op.Kind.IsMatrix() && !isSerialVec(op.Kind) {
					shares[si].IntrinsicSec *= factor
				}
			}
		}
		if io.WeightBytes == 0 {
			pinnable = false
		}

		dramPre := io.InputBytes + io.OutputBytes + io.WeightBytes + extraBytes
		tMax := maxf(computeSec, float64(dramPre)/perCoreBW)
		tMin := computeSec

		edgeProducer, edgeBytes, edgeSole := part.PrimaryEdge(r)
		resident := edgeBytes
		if nb := g.NativeBatch(); nb > 1 && edgeBytes > 0 && !opts.WholeTensorFusion {
			resident = edgeBytes / nb
		}
		costs[ri] = fusion.RegionCost{
			TMin: tMin, TMax: tMax,
			TWeight: float64(io.WeightBytes) / perCoreBW,
			DWeight: io.WeightBytes, PinnableWeights: pinnable,
			EdgeProducer:      edgeProducer,
			EdgeBytes:         edgeBytes,
			EdgeResidentBytes: resident,
			TEdgeRead:         float64(edgeBytes+extraBytes) / perCoreBW,
		}
		if edgeSole {
			costs[ri].TEdgeWrite = float64(edgeBytes) / perCoreBW
		}
		stats[ri] = RegionStats{
			Region: r, ComputeSec: computeSec, Shares: shares,
			ExtraBytes:   extraBytes,
			DRAMBytesPre: dramPre, SecPre: tMax, FLOPs: io.FLOPs,
		}
		totalFLOPs += io.FLOPs
		matrixFLOPs += io.MatrixFLOPs
	}

	producers := make([]int, len(costs))
	for i := range costs {
		producers[i] = costs[i].EdgeProducer
	}
	usable := fusion.UsableEdges(producers)
	var asn fusion.Assignment
	fusion.SolvePlanned(&asn, costs, usable, cfg.GlobalBytes(), opts.Fusion)
	var sol fusion.Solution
	fusion.ResolvePlanned(&sol, costs, cfg.GlobalBytes(), asn)
	res.Fusion = sol

	for ri := range stats {
		b := stats[ri].DRAMBytesPre
		if sol.PinWeight[ri] {
			b -= costs[ri].DWeight
		}
		if sol.EdgeOnChip[ri] {
			b -= costs[ri].EdgeBytes + stats[ri].ExtraBytes
			if costs[ri].TEdgeWrite > 0 {
				p := costs[ri].EdgeProducer
				stats[p].DRAMBytesPost -= costs[ri].EdgeBytes
			}
		}
		stats[ri].DRAMBytesPost += b
	}
	var latency, preLatency, computeTotal float64
	var bytesPre, bytesPost int64
	for ri := range stats {
		if stats[ri].DRAMBytesPost < 0 {
			stats[ri].DRAMBytesPost = 0
		}
		post := sol.Times[ri]
		stats[ri].SecPost = post
		latency += post
		preLatency += stats[ri].SecPre
		computeTotal += stats[ri].ComputeSec
		bytesPre += stats[ri].DRAMBytesPre
		bytesPost += stats[ri].DRAMBytesPost
	}
	res.Regions = stats
	res.LatencySec = latency
	if latency > 0 {
		res.QPS = float64(cfg.Cores) * float64(g.NativeBatch()) / latency
		res.Utilization = float64(matrixFLOPs) / (latency * cfg.PeakFLOPs() / float64(cfg.Cores))
	}
	if bytesPre > 0 {
		res.OpIntensityPre = float64(totalFLOPs) / float64(bytesPre)
	}
	if bytesPost > 0 {
		res.OpIntensityPost = float64(totalFLOPs) / float64(bytesPost)
	}
	if preLatency > 0 {
		res.MemStallPre = (preLatency - computeTotal) / preLatency
	}
	if latency > 0 {
		res.MemStallPost = (latency - computeTotal) / latency
	}
	if stall := preLatency - computeTotal; stall > 0 {
		res.FusionEfficiency = (preLatency - latency) / stall
	}

	pm := opts.PowerModel
	if pm == nil {
		pm = power.Default()
	}
	eval := pm.Evaluate(cfg)
	res.TDPWatts = eval.TotalPower()
	res.AreaMM2 = eval.TotalArea()
	if res.TDPWatts > 0 {
		res.PerfPerTDP = res.QPS / res.TDPWatts
	}
	return res
}
