package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fast/internal/arch"
	"fast/internal/search"
)

// referenceEvaluate scores one design on its own, straight from the
// paper: decode, validate, budget (Eq. 4), simulate every workload
// (Eq. 5 and the latency bound), geomean (Eq. 3). No batching, no
// grouping, no shared fold state — the yardstick the one production
// evaluator is held to.
func referenceEvaluate(sp EvalSpec, objs []ObjectiveKind, idx [arch.NumParams]int) search.Evaluation {
	cfg := arch.Space{}.Decode(idx, sp.Base)
	bd := sp.SimOptions.PowerModel.Evaluate(cfg)
	if cfg.Validate() != nil || bd.TotalPower() > sp.Budget.MaxTDPW || bd.TotalArea() > sp.Budget.MaxAreaMM2 {
		return search.Evaluation{}
	}
	logSum := make([]float64, len(objs))
	for _, w := range sp.Workloads {
		plan, err := plans.get(w, cfg.NativeBatch, sp.SimOptions.Fingerprint(), sp.SimOptions)
		if err != nil {
			return search.Evaluation{}
		}
		r, err := plan.Evaluate(cfg)
		if err != nil || r.ScheduleFailed || r.QPS <= 0 || (sp.LatencyBoundSec > 0 && r.LatencySec > sp.LatencyBoundSec) {
			return search.Evaluation{}
		}
		for k, o := range objs {
			v := map[ObjectiveKind]float64{Perf: r.QPS, PerfPerTDP: r.PerfPerTDP, TDP: 1, Area: 1}[o]
			if v <= 0 {
				return search.Evaluation{}
			}
			logSum[k] += math.Log(v) // the cost objectives have no per-workload term
		}
	}
	vals := make([]float64, len(objs))
	for k, o := range objs {
		geomean := math.Exp(logSum[k] / float64(len(sp.Workloads)))
		vals[k] = map[ObjectiveKind]float64{Perf: geomean, PerfPerTDP: geomean, TDP: -bd.TotalPower(), Area: -bd.TotalArea()}[o]
	}
	return search.Evaluation{Value: vals[0], Values: vals, Feasible: true}
}

// probeSet is 24 uniform random vectors (mostly infeasible) followed by
// a 24-step mutation chain around a known-good design (mostly feasible).
func probeSet() [][arch.NumParams]int {
	rng := rand.New(rand.NewSource(17))
	dims := arch.Space{}.Dims()
	var idxs [][arch.NumParams]int
	for i := 0; i < 24; i++ {
		var idx [arch.NumParams]int
		for d, card := range dims {
			idx[d] = rng.Intn(card)
		}
		idxs = append(idxs, idx)
	}
	seed := arch.Space{}.Encode(arch.FASTLarge())
	for i := 0; i < 24; i++ {
		d := rng.Intn(arch.NumParams)
		seed[d] = rng.Intn(dims[d])
		idxs = append(idxs, seed)
	}
	return idxs
}

// TestEvaluatorMatchesReference: the evaluator BuildBatchEvaluator
// compiles from a study's EvalSpec returns, for every probe vector, the
// bit-identical Evaluation of the per-point reference — for both scalar
// objectives, the 1-element vector spelling and a three-objective
// study, on one and two workloads, with and without a latency bound. A
// scalar study's Evaluations carry no Values.
func TestEvaluatorMatchesReference(t *testing.T) {
	idxs := probeSet()
	for _, workloads := range [][]string{{"efficientnet-b0"}, {"efficientnet-b0", "ocr-rpn"}} {
		for _, bound := range []float64{0, 0.015} {
			for _, st := range []Study{
				{Objective: PerfPerTDP},
				{Objective: Perf},
				{Objectives: []ObjectiveKind{PerfPerTDP}},
				{Objectives: []ObjectiveKind{Perf, TDP, Area}},
			} {
				st.Workloads, st.LatencyBoundSec = workloads, bound
				label := fmt.Sprintf("%v bound=%v %s %v", workloads, bound, st.Objective, st.Objectives)
				sp := st.evalSpec()
				evaluate, err := BuildBatchEvaluator(sp)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got := evaluate(idxs)
				if len(got) != len(idxs) {
					t.Fatalf("%s: %d evaluations for %d points", label, len(got), len(idxs))
				}
				objs := st.Objectives
				if objs == nil {
					objs = []ObjectiveKind{st.Objective}
				}
				feasible := 0
				for i, idx := range idxs {
					want := referenceEvaluate(sp, objs, idx)
					if st.Objectives == nil {
						want.Values = nil
					}
					if !want.Equal(got[i]) {
						t.Errorf("%s: point %d: reference %+v vs evaluator %+v", label, i, want, got[i])
					}
					if want.Feasible {
						feasible++
					}
				}
				if feasible == 0 {
					t.Errorf("%s: no feasible point in the probe set — the comparison is vacuous", label)
				}
			}
		}
	}
}

// TestTranscriptPinned holds the checkpoint bytes of one scalar and one
// vector study to the values recorded before the evaluators were
// collapsed into one (parent commit a5fd9cc), independently of the
// fast-bench goldens: the JSON-marshalled trial history is what
// internal/store persists line by line.
func TestTranscriptPinned(t *testing.T) {
	for _, tc := range []struct {
		study  Study
		sha256 string
	}{
		{Study{Objective: PerfPerTDP, Algorithm: search.AlgLCS},
			"1e8833a81a78011ad223d0b25777a7a597c69cc61e084ab6a54bd89fed165fa3"},
		{Study{Objectives: []ObjectiveKind{Perf, Area}, Algorithm: search.AlgNSGA2},
			"0feb0f37d772b1c07a77e906a06af94a8785c13362ee25728378c059e6f86b72"},
	} {
		st := tc.study
		st.Workloads, st.Trials, st.Seed = []string{"efficientnet-b0"}, 48, 5
		res, err := st.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(res.Search.History)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
			t.Errorf("%s %v: transcript sha256 %s, want %s", st.Objective, st.Objectives, got, tc.sha256)
		}
	}
}
