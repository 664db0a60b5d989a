package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// benchmarkFile is BENCHMARK.json: the contract between this harness
// and whoever gates on it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (benchmarkFile, error) {
	var b benchmarkFile
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return b, err
	}
	return b, json.Unmarshal(raw, &b)
}

// resultFile is what -out writes: one or more sets, each one run of
// every selected workload.
type resultFile struct {
	Schema string         `json:"schema"`
	Host   map[string]any `json:"host"`
	Sets   [][]runResult  `json:"sets"`
}

func readResultFile(path string) (resultFile, error) {
	var r resultFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// values collects one metric of one workload over a file's sets.
func (r resultFile) values(workload, name string) []float64 {
	var xs []float64
	for _, set := range r.Sets {
		for _, run := range set {
			if m, ok := run.Metrics[name]; ok && run.Workload == workload && m.Value != nil {
				xs = append(xs, *m.Value)
			}
		}
	}
	return xs
}

// verdict compares one end-to-end metric on one workload between a base
// set of runs and a candidate set: the candidate's median may not be
// worse than the base's by more than bound. Where either side's own
// spread exceeds the bound the comparison cannot tell, and the row is
// "unresolved" — unless every candidate run reads better than every
// base run.
func verdict(base, cand []float64, better string, bound float64) (status string, change float64) {
	if len(base) == 0 || len(cand) == 0 {
		return "missing", 0
	}
	mb, mc := median(base), median(cand)
	change = (mc - mb) / mb // > 0 is worse for lower-is-better
	allBetter := slices.Max(cand) < slices.Min(base)
	if better == "higher" {
		change = -change
		allBetter = slices.Min(cand) > slices.Max(base)
	}
	switch {
	case allBetter:
		return "ok", change
	case spread(base) > bound || spread(cand) > bound:
		return "unresolved", change
	case change > bound:
		return "BREACH", change
	}
	return "ok", change
}

// check prints one row per workload × end-to-end metric and reports
// whether any bound was breached.
func check(w io.Writer, bench benchmarkFile, base, cand resultFile) (breached bool) {
	fmt.Fprintf(w, "%-22s %-12s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "base", "candidate", "change", "spreadA", "spreadB", "bound", "verdict")
	for _, wl := range bench.Workloads {
		for _, m := range bench.EndToEnd {
			a, b := base.values(wl.Name, m.Name), cand.values(wl.Name, m.Name)
			status, change := verdict(a, b, m.Better, m.Bound)
			if status == "missing" {
				fmt.Fprintf(w, "%-22s %-12s %12s %12s %8s %8s %8s %6.2f  missing\n", wl.Name, m.Name, "-", "-", "-", "-", "-", m.Bound)
				continue
			}
			fmt.Fprintf(w, "%-22s %-12s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %6.2f  %s (n=%d,%d)\n",
				wl.Name, m.Name, median(a), median(b), change*100, spread(a)*100, spread(b)*100, m.Bound, status, len(a), len(b))
			breached = breached || status == "BREACH"
		}
	}
	return breached
}
