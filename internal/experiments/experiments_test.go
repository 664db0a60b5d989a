package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// tinyOpts compresses search and solver budgets so the whole registry
// runs in test time.
var tinyOpts = Options{SearchTrials: 12, ConvergenceTrials: 12, Repeats: 1, Seed: 1,
	ILPNodes: 2048}

func cell(t Table, row, col int) float64 {
	s := strings.Fields(t.Rows[row][col])[0]
	s = strings.TrimSuffix(s, "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		panic(err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry(tinyOpts)
	if len(reg) != len(IDs()) {
		t.Fatalf("registry has %d entries, IDs lists %d", len(reg), len(IDs()))
	}
	for _, id := range IDs() {
		if _, ok := reg[id]; !ok {
			t.Errorf("missing generator for %s", id)
		}
	}
}

func TestCheapExperimentsProduceRows(t *testing.T) {
	// Every non-search experiment must produce a non-empty, well-formed
	// table quickly.
	withTiny := func(gen func(Options) Table) func() Table {
		return func() Table { return gen(tinyOpts) }
	}
	cheap := []func() Table{
		table1WorkingSets, table2OpBreakdown, fig2StepTimeVsAccuracy,
		fig3OpIntensity, fig4PerLayerUtil, fig5BERTBreakdown,
		fig6ROICurves, withTiny(fig13FusionSweep), withTiny(fig14PerLayerFAST),
		withTiny(fig15Breakdown), withTiny(table5Designs), withTiny(table6Ablation),
	}
	for _, gen := range cheap {
		tab := gen()
		if len(tab.Rows) == 0 {
			t.Errorf("%s: no rows", tab.ID)
		}
		if tab.ID == "" || tab.Title == "" || tab.Notes == "" {
			t.Errorf("%s: missing metadata", tab.ID)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Errorf("%s: ragged row %v", tab.ID, row)
			}
		}
		if tab.String() == "" || tab.Markdown() == "" {
			t.Errorf("%s: renderers empty", tab.ID)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	tab := table2OpBreakdown()
	// Row 0 is the largest runtime share; it must be depthwise with a
	// small FLOP share (Table 2's punchline).
	if tab.Rows[0][0] != "DepthwiseConv2dNative" {
		t.Fatalf("top runtime class = %s, want depthwise", tab.Rows[0][0])
	}
	if cell(tab, 0, 1) > 10 {
		t.Errorf("depthwise FLOP share = %s%%, want ~5%%", tab.Rows[0][1])
	}
	if cell(tab, 0, 2) < 35 {
		t.Errorf("depthwise runtime share = %s%%, want dominant", tab.Rows[0][2])
	}
}

func TestFig3Monotone(t *testing.T) {
	tab := fig3OpIntensity()
	for _, row := range tab.Rows {
		var vals []float64
		for i := 2; i < len(row); i++ {
			v, err := strconv.ParseFloat(row[i], 64)
			if err != nil {
				t.Fatalf("bad cell %q", row[i])
			}
			vals = append(vals, v)
		}
		for i := 1; i < len(vals); i++ {
			if vals[i] < vals[i-1]-1e-6 {
				t.Errorf("%s batch %s: intensity not monotone across fusion levels: %v",
					row[0], row[1], vals)
			}
		}
	}
}

func TestFig5AttentionGrows(t *testing.T) {
	tab := fig5BERTBreakdown()
	first := cell(tab, 0, 3) + cell(tab, 0, 4) // attention + softmax at seq 128
	last := cell(tab, len(tab.Rows)-1, 3) + cell(tab, len(tab.Rows)-1, 4)
	if last <= first {
		t.Errorf("attention share must grow with sequence length: %.1f → %.1f", first, last)
	}
	if last < 50 {
		t.Errorf("attention+softmax at seq 2048 = %.1f%%, want dominant", last)
	}
}

func TestFig13Directions(t *testing.T) {
	tab := fig13FusionSweep(tinyOpts)
	// Within each row intensity must be non-decreasing in Global Memory;
	// within each (model, GM) column it must be non-increasing in batch.
	for _, row := range tab.Rows {
		prev := 0.0
		for i := 2; i < len(row); i++ {
			v, _ := strconv.ParseFloat(row[i], 64)
			if v < prev-1e-6 {
				t.Errorf("row %v: intensity decreased with more GM", row)
			}
			prev = v
		}
	}
	// Batch monotonicity holds in the capacity-constrained regime (the
	// paper's operating range): check the smallest GM column per model
	// and B7 at 128 MiB. Once every tensor fits, batching amortizes
	// weights instead and the trend legitimately flattens or reverses.
	checkCols := map[string]int{"efficientnet-b0": 2, "efficientnet-b7": 5}
	for model, col := range checkCols {
		prev := 1e18
		for _, row := range tab.Rows {
			if row[0] != model {
				continue
			}
			v, _ := strconv.ParseFloat(row[col], 64)
			if v > prev+1e-6 {
				t.Errorf("%s %s: intensity grew with batch in the constrained regime", model, tab.Header[col])
			}
			prev = v
		}
	}
}

func TestFig15AdditiveImprovements(t *testing.T) {
	tab := fig15Breakdown(tinyOpts)
	prev := 0.0
	for i, row := range tab.Rows {
		v := cell(tab, i, 2)
		if v < prev-0.05 {
			t.Errorf("component %q regressed the stack: %.2f < %.2f", row[0], v, prev)
		}
		prev = v
	}
	// Fusion must be the large final jump.
	last := cell(tab, len(tab.Rows)-1, 2)
	beforeFusion := cell(tab, len(tab.Rows)-2, 2)
	if last < beforeFusion*1.5 {
		t.Errorf("fusion jump %.2f → %.2f too small", beforeFusion, last)
	}
}

func TestTable5Shape(t *testing.T) {
	tab := table5Designs(tinyOpts)
	find := func(metric string) []string {
		for _, row := range tab.Rows {
			if row[0] == metric {
				return row
			}
		}
		t.Fatalf("missing row %q", metric)
		return nil
	}
	util := find("Compute Utilization")
	u := func(s string) float64 {
		v, _ := strconv.ParseFloat(s, 64)
		return v
	}
	if !(u(util[1]) < u(util[2]) && u(util[1]) < u(util[3])) {
		t.Errorf("FAST designs must out-utilize TPU-v3: %v", util)
	}
	perf := find("Normalized Perf/TDP")
	if u(perf[2]) < 2 || u(perf[3]) < 2 {
		t.Errorf("FAST designs must deliver ≥2x Perf/TDP: %v", perf)
	}
}

func TestTable6EveryComponentMatters(t *testing.T) {
	tab := table6Ablation(tinyOpts)
	// Row 0 is unmodified FAST-Large; every later row must be worse on
	// EfficientNet-B7.
	base := cell(tab, 0, 1)
	for i := 1; i < len(tab.Rows); i++ {
		if v := cell(tab, i, 1); v >= base {
			t.Errorf("ablation %q did not hurt B7: %.2f >= %.2f", tab.Rows[i][0], v, base)
		}
	}
}

func TestDecodeServingShape(t *testing.T) {
	tab := decodeServing(tinyOpts)
	if len(tab.Rows) < 3 {
		t.Fatalf("decode table has %d rows, want the baseline + 2 FAST designs", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		if cell(tab, i, 1) <= cell(tab, i, 2) {
			t.Errorf("%s: prefill tok/s %s not above decode tok/s %s", row[0], row[1], row[2])
		}
	}
	// Decode on the dense FAST designs is memory-stalled (the regime KV
	// residency targets), and the decode-tuned design holds cache slabs.
	if v := cell(tab, 1, 4); v < 50 {
		t.Errorf("fast-large decode stall = %.1f%%, want memory-bound", v)
	}
	if v := cell(tab, 2, 3); v <= 0 {
		t.Errorf("fast-decode holds %.1f MiB of KV cache, want > 0", v)
	}
}

func TestSearchExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("search experiments under -short")
	}
	reg := Registry(tinyOpts)
	for _, id := range []string{"fig9", "fig10", "fig11", "fig12", "frontier", "table4", "decode"} {
		tab := reg[id]()
		if len(tab.Rows) == 0 {
			t.Errorf("%s: no rows", id)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := Table{
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1,5", `say "hi"`}, {"plain", "x"}},
	}
	csv := tab.CSV()
	want := "a,b\n\"1,5\",\"say \"\"hi\"\"\"\nplain,x\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
	if got := table1WorkingSets().CSV(); !strings.Contains(got, "EfficientNet-B7") {
		t.Error("real table CSV missing rows")
	}
}
