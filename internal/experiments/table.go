// Package experiments regenerates every table and figure in the paper's
// evaluation (Registry maps each experiment id to its generator, IDs
// lists the ids in presentation order). Each generator
// returns a Table with the same rows/series the paper reports;
// cmd/fast-experiments prints them and bench_test.go times them.
package experiments

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Notes records paper-vs-measured commentary, printed under the table.
	Notes string
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// Markdown renders the table as GitHub markdown.
func (t Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "\n_%s_\n", t.Notes)
	}
	return b.String()
}

// Options sizes the expensive experiments. Zero values select the
// defaults below, which cmd/fast-experiments' flags default to as well.
type Options struct {
	// SearchTrials per search study (default 120).
	SearchTrials int
	// ConvergenceTrials per Figure 11 curve (default 150).
	ConvergenceTrials int
	// Repeats per heuristic for Figure 11 (default 3; paper uses 5).
	Repeats int
	// Seed for determinism.
	Seed int64
	// Parallelism bounds concurrent candidate evaluations per study and
	// concurrent reporting simulations per table (0 = one worker per
	// CPU). Search trajectories and reporting cells are identical at any
	// setting.
	Parallelism int
	// ILPNodes bounds each exact fusion-ILP solve on the reporting paths
	// in branch-and-bound nodes (0 = fusion.DefaultMaxNodes). A budget or
	// stall stop reports the greedy-seeded incumbent with its optimality
	// gap instead of failing the table.
	ILPNodes int
}

func (o Options) withDefaults() Options {
	if o.SearchTrials == 0 {
		o.SearchTrials = 120
	}
	if o.ConvergenceTrials == 0 {
		o.ConvergenceTrials = 150
	}
	if o.Repeats == 0 {
		o.Repeats = 3
	}
	return o
}

// Registry maps experiment IDs to generators.
func Registry(o Options) map[string]func() Table {
	o = o.withDefaults()
	return map[string]func() Table{
		"table1":   table1WorkingSets,
		"table2":   table2OpBreakdown,
		"table4":   func() Table { return table4ROIVolumes(o) },
		"table5":   func() Table { return table5Designs(o) },
		"table6":   func() Table { return table6Ablation(o) },
		"fig2":     fig2StepTimeVsAccuracy,
		"fig3":     fig3OpIntensity,
		"fig4":     fig4PerLayerUtil,
		"fig5":     fig5BERTBreakdown,
		"fig6":     fig6ROICurves,
		"fig9":     func() Table { return fig9Speedup(o) },
		"fig10":    func() Table { return fig10PerfPerTDP(o) },
		"fig11":    func() Table { return fig11Convergence(o) },
		"fig12":    func() Table { return fig12Pareto(o) },
		"frontier": func() Table { return frontierTradeoff(o) },
		"fig13":    func() Table { return fig13FusionSweep(o) },
		"fig14":    func() Table { return fig14PerLayerFAST(o) },
		"fig15":    func() Table { return fig15Breakdown(o) },
		"decode":   func() Table { return decodeServing(o) },
	}
}

// IDs lists the experiment identifiers in presentation order.
func IDs() []string {
	ids := []string{"table1", "table2", "fig2", "fig3", "fig4", "fig5", "fig6",
		"fig9", "fig10", "fig11", "fig12", "frontier", "fig13", "fig14", "fig15",
		"table4", "table5", "table6", "decode"}
	return ids
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// CSV renders the table as RFC-4180-ish CSV (fields with commas or
// quotes are quoted).
func (t Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
