package core

// Multi-objective (Pareto-front) studies.
//
// The paper's headline results are trade-off curves, not single points:
// designs are compared by Perf/TDP under area and power budgets, and
// whole frontiers feed the ROI/TCO analysis (§5.1, Figure 12). A study
// with Objectives set searches all of its targets at once — the
// NSGA-II optimizer keeps a diverse non-dominated population, and the
// Pareto front of the full trial history is returned with per-point
// workload results. All objectives of a trial derive from the same
// simulation per (design, workload), so a 3-objective study costs the
// same plan evaluations as a 1-objective one.

import (
	"fmt"
	"sort"

	"fast/internal/arch"
	"fast/internal/search"
)

// DefaultFrontCap is the default bound on a study's returned Pareto
// front (crowding-distance pruning keeps the most spread-out points).
const DefaultFrontCap = 32

// FrontPoint is one design on a multi-objective study's Pareto front.
type FrontPoint struct {
	// Index is the design's hyperparameter vector.
	Index [arch.NumParams]int
	// Design is the decoded configuration.
	Design *arch.Config
	// Values are the raw objective values in Study.Objectives order and
	// natural units (QPS, QPS/W, watts, mm²; geomean across workloads
	// for the per-workload metrics), as scored by the search's software
	// stack — these are the values dominance was decided on.
	Values []float64
	// PerWorkload re-simulates the design on each workload with the
	// full (ILP-backed) fusion solve. Empty when the run was canceled.
	PerWorkload []WorkloadResult
}

// Front returns the study's Pareto front, sorted by descending first
// objective (raw-value order for minimization targets follows suit:
// best first). Empty for scalar studies and when no feasible design
// was found.
func (r *StudyResult) Front() []FrontPoint { return r.front }

// paretoFront folds a multi-objective study's trial history into its
// front. The front is the non-dominated subset of the full history — not
// of the optimizer's final population — folded in deterministic tell
// order, so it is identical at any parallelism and no early discovery is
// lost to population churn. PerWorkload is left for finalReport. s is
// resolved, so its FrontCap is final.
func (s *Study) paretoFront(history []search.Trial, base *arch.Config) []FrontPoint {
	archive := search.NewParetoArchive(s.FrontCap)
	for _, tr := range history {
		archive.Add(tr)
	}
	trials := archive.Front()
	sort.SliceStable(trials, func(a, b int) bool { return trials[a].Values[0] > trials[b].Values[0] })
	var front []FrontPoint
	for i, tr := range trials {
		raw := make([]float64, len(tr.Values))
		for k, v := range tr.Values {
			raw[k] = s.Objectives[k].Raw(v)
		}
		cfg := arch.Space{}.Decode(tr.Index, base)
		cfg.Name = fmt.Sprintf("fast-front%02d-%s", i, shortName(s.Workloads))
		front = append(front, FrontPoint{Index: tr.Index, Design: cfg, Values: raw})
	}
	return front
}
