package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func readTestdata(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3, ok := quartiles(xs)
	if !ok || q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 8.25 true", q1, q3, ok)
	}
	if got, want := spread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3, _ := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v, want 0.75 2.25", q1, q3)
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("one sample has no quartiles")
	}
}

func TestPercentileEligibility(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	if _, ok := percentile(seq(99), 90); ok {
		t.Error("p90 of 99 samples has fewer than ten beyond it")
	}
	if v, ok := percentile(seq(100), 90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v %v, want 90 true", v, ok)
	}
	if _, ok := percentile(seq(19), 50); ok {
		t.Error("p50 of 19 samples has fewer than ten beyond it")
	}
	if v, ok := percentile(seq(20), 50); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v %v, want 10 true", v, ok)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "a", Start: 30, End: 60},  // overlaps span 1: 10..60 counts once
		{ID: 3, Parent: 0, Name: "b", Start: 80, End: 120}, // clipped to the root's end
		{ID: 4, Parent: 1, Name: "grandchild", Start: 0, End: 100},
		{ID: 5, Parent: 0, Name: "a", Start: 35, End: 38}, // inside the union already
	}
	if got := covered(spans, 0, ""); got != 70 {
		t.Errorf("covered = %d, want 70", got)
	}
	if got := covered(spans, 0, "a"); got != 50 {
		t.Errorf("covered by a = %d, want 50", got)
	}
	if got := selfTime(spans, 0); got != 30 {
		t.Errorf("self time = %d, want 30", got)
	}
	if got := selfTime(spans, 2); got != 30 {
		t.Errorf("self time of a leaf = %d, want its duration 30", got)
	}
}

func TestTracerAndChromeTrace(t *testing.T) {
	tr := newTracer()
	root := tr.begin("core.study_run", -1)
	a := tr.begin("core.evaluate_batch", root)
	b := tr.begin("core.evaluate_batch", root)
	tr.end(a)
	tr.end(b)
	tr.end(root)
	if s := tr.spans[root]; s.End < tr.spans[b].End || selfTime(tr.spans, root) < 0 {
		t.Errorf("root %+v does not enclose its children", s)
	}
	raw, err := chromeTrace(map[string][]span{"w": tr.spans})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Ph string
			Tid      int
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 4 { // process name + three spans
		t.Fatalf("%d trace events, want 4", len(doc.TraceEvents))
	}
	// The two concurrent children must not share a row.
	if doc.TraceEvents[2].Tid == doc.TraceEvents[3].Tid {
		t.Errorf("overlapping children share row %d", doc.TraceEvents[2].Tid)
	}
}

func TestNormalize(t *testing.T) {
	out := readTestdata(t, "search_workers2.stdout")
	n := normalize(out, false)
	if strings.Contains(n, "done in") || strings.Contains(n, "workers live") {
		t.Errorf("normalize kept a run-dependent line:\n%s", n)
	}
	if !strings.Contains(n, "pareto front (7 points)") || !strings.Contains(n, "38.224") {
		t.Errorf("normalize dropped result lines:\n%s", n)
	}
	slower := strings.Replace(out, "done in 0.0s (2651.6 trials/s)", "done in 1.3s (49.2 trials/s)", 1)
	if slower == out || digest(normalize(slower, false)) != digest(n) {
		t.Error("a different `done in` line must not change the digest")
	}
	wrong := strings.Replace(out, "38.224", "38.225", 1)
	if digest(normalize(wrong, false)) == digest(n) {
		t.Error("a different simulated figure must change the digest")
	}

	sim := readTestdata(t, "sim_incumbent.stdout")
	if kept := normalize(sim, false); !strings.Contains(kept, "memory stall") {
		t.Error("the fusion line belongs to the digest unless stripFusion is set")
	}
	stripped := normalize(sim, true)
	if strings.Contains(stripped, "memory stall") || !strings.Contains(stripped, "throughput          241.6 QPS") {
		t.Errorf("stripFusion must drop the fusion line and nothing else:\n%s", stripped)
	}

	a := "{\n \"id\": \"p0-1\",\n \"tenant\": \"default\",\n \"best_value\": 12.5\n}"
	b := strings.Replace(a, "p0-1", "p7-3", 1)
	if digest(normalizeResult(a)) != digest(normalizeResult(b)) {
		t.Error("the submission id must not change a result's digest")
	}
	if digest(normalizeResult(a)) == digest(normalizeResult(strings.Replace(a, "12.5", "12.6", 1))) {
		t.Error("a different result must change the digest")
	}
}

func TestParseProgress(t *testing.T) {
	count := func(name string) (lines, workerUp int, lastN, total int) {
		for _, line := range strings.Split(readTestdata(t, name), "\n") {
			if n, tot, ok := parseProgress(line); ok {
				lines++
				lastN, total = n, tot
			}
			if workerUpRE.MatchString(line) {
				workerUp++
			}
		}
		return
	}
	if lines, up, n, total := count("search_scalar.stderr"); lines != 8 || up != 0 || n != 64 || total != 64 {
		t.Errorf("scalar: %d progress lines, %d worker-up, last %d/%d", lines, up, n, total)
	}
	if lines, up, n, total := count("search_workers2.stderr"); lines != 8 || up != 2 || n != 64 || total != 64 {
		t.Errorf("workers2: %d progress lines, %d worker-up, last %d/%d", lines, up, n, total)
	}
	if _, _, ok := parseProgress("  trial 8/64  best -"); !ok {
		t.Error("a progress line before any feasible trial must parse")
	}
	if _, _, ok := parseProgress("searching 64 trials (lcs, perf-per-tdp) over efficientnet-b0"); ok {
		t.Error("the banner is not a progress line")
	}
}

func TestParseFusionAndDispatch(t *testing.T) {
	find := func(name string) fusionLine {
		for _, line := range strings.Split(readTestdata(t, name), "\n") {
			if f, ok := parseFusion(line); ok {
				return f
			}
		}
		t.Fatalf("%s: no fusion line parsed", name)
		return fusionLine{}
	}
	if f := find("sim_optimal.stdout"); f != (fusionLine{Method: "ilp-optimal", Nodes: 171, Proven: true}) {
		t.Errorf("optimal: %+v", f)
	}
	if f := find("sim_incumbent.stdout"); f.Method != "ilp-incumbent" || f.Proven || f.Nodes != 627 || math.Abs(f.Gap-0.03) > 1e-12 {
		t.Errorf("incumbent: %+v", f)
	}
	if f := find("sim_unbounded.stdout"); f.Method != "ilp-incumbent" || f.Nodes != 22 || !math.IsInf(f.Gap, 1) {
		t.Errorf("unbounded: %+v", f)
	}

	var got *dispatchStats
	for _, line := range strings.Split(readTestdata(t, "search_workers2.stdout"), "\n") {
		if d, ok := parseDispatch(line); ok {
			got = &d
		}
	}
	if got == nil || *got != (dispatchStats{Live: 2, Workers: 2, Points: 64, Chunks: 8}) {
		t.Errorf("dispatch line: %+v", got)
	}
	if !doneRE.MatchString("done in 0.0s (2651.6 trials/s); 33/64 trials feasible") {
		t.Error("doneRE must match fast-search's `done in` line")
	}
}

func keys(ops []op) []string {
	out := make([]string, len(ops))
	for i, o := range ops {
		out[i] = o.Key
	}
	return out
}

func TestOpListDeterminism(t *testing.T) {
	seen := map[string]bool{}
	for i := range workloads {
		w := &workloads[i]
		if seen[w.Name] {
			t.Errorf("workload %s is listed twice", w.Name)
		}
		seen[w.Name] = true
		a, b := keys(w.opList(3, false)), keys(w.opList(3, false))
		if !slices.Equal(a, b) || len(a) == 0 {
			t.Errorf("%s: seed 3 gave op lists %q and %q", w.Name, a, b)
		}
		if q := w.opList(3, true); len(q) != 1 {
			t.Errorf("%s: quick keeps %d ops, want 1", w.Name, len(q))
		}
		other := keys(w.opList(4, false))
		// The seed orders the ops, it does not choose them.
		if sa, so := slices.Sorted(slices.Values(a)), slices.Sorted(slices.Values(other)); !slices.Equal(sa, so) {
			t.Errorf("%s: seeds 3 and 4 run different ops", w.Name)
		}
		for _, o := range w.ops() {
			if o.Study == nil && !slices.Contains(binaries, o.Bin) {
				t.Errorf("%s: op %q runs %q, which set-up does not build", w.Name, o.Key, o.Bin)
			}
		}
	}
	// With six ops, two seeds that order a pass the same way would be a
	// broken shuffle.
	w := workloadByName("single_5000")
	if slices.Equal(keys(w.opList(1, false)), keys(w.opList(2, false))) {
		t.Error("single_5000: seeds 1 and 2 give the same order")
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	cases := []struct {
		name   string
		cand   []float64
		better string
		want   string
	}{
		{"same", []float64{1.00, 1.02, 1.01, 0.99, 1.00}, "lower", "ok"},
		{"slower inside the bound", []float64{1.05, 1.06, 1.04, 1.05, 1.07}, "lower", "ok"},
		{"slower beyond the bound", []float64{1.20, 1.21, 1.19, 1.20, 1.22}, "lower", "BREACH"},
		{"noisy", []float64{0.8, 1.3, 1.0, 1.6, 0.7}, "lower", "unresolved"},
		{"noisy but always better", []float64{0.5, 0.9, 0.6, 0.8, 0.3}, "lower", "ok"},
		{"higher is better, lower value", []float64{0.80, 0.81, 0.79, 0.80, 0.82}, "higher", "BREACH"},
		{"higher is better, higher value", []float64{1.20, 1.21, 1.19, 1.20, 1.22}, "higher", "ok"},
		{"nothing to compare", nil, "lower", "missing"},
	}
	for _, c := range cases {
		if got, _ := verdict(base, c.cand, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestRepoSize(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("lib/a.go", "package lib\n\ntype T struct{}\ntype u struct{}\n\nfunc (T) M() {}\nfunc (T) m() {}\nfunc (u) M() {}\nfunc F() {}\nfunc f() {}\n\nvar V, w int\n\nconst C = 1\n") // 14 lines; T, T.M, F, V, C
	write("lib/a_test.go", "package lib\n\nfunc TestX() {}\n")
	write("cmd/tool/main.go", "package main\n\nfunc Exported() {}\nfunc main() {}\n") // 4 lines, package main: no API
	write("cmd/fast-bench/main.go", "package main\n\nfunc main() {}\n")
	write("lib/testdata/x.go", "package x\n\nfunc X() {}\n")
	write(".hidden/x.go", "package x\n\nfunc X() {}\n")
	loc, exported, err := repoSize(root)
	if err != nil {
		t.Fatal(err)
	}
	if loc != 18 || exported != 5 {
		t.Errorf("repoSize = %d lines, %d exported; want 18, 5", loc, exported)
	}
}

// TestGoldenWorkersMatchInProcess: shipping evaluation to workers must
// not change a study's report, so the goldens of pareto_512_workers2
// are those of pareto_512.
func TestGoldenWorkersMatchInProcess(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	pairs := 0
	for key, d := range golden {
		if base, ok := strings.CutSuffix(key, " -workers 2"); ok {
			pairs++
			if golden[base] != d {
				t.Errorf("%s: digest %s, in-process %s", key, d, golden[base])
			}
		}
	}
	if pairs == 0 {
		t.Error("no -workers 2 op in golden.json")
	}
	ops := 0
	for i := range workloads {
		for _, o := range workloads[i].ops() {
			if golden[o.Key] == "" {
				t.Errorf("no golden digest for %q", o.Key)
			}
		}
		ops += len(workloads[i].opList(1, false))
	}
	// serve_fsync submits each of its three studies four times a pass.
	if want := ops - 9; len(golden) != want {
		t.Errorf("golden.json holds %d digests, the op lists %d distinct ops", len(golden), want)
	}
}

// TestCatalogueMatchesBenchmarkFile keeps BENCHMARK.json and the
// harness's own lists of workloads and metrics the same lists.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	type row struct{ name, unit, better string }
	var e2e, layer, fileE2E, fileLayer []row
	for _, d := range catalogue {
		if d.E2E {
			e2e = append(e2e, row{d.Name, d.Unit, d.Better})
		} else {
			layer = append(layer, row{d.Name, d.Unit, d.Better})
		}
	}
	for _, m := range b.EndToEnd {
		fileE2E = append(fileE2E, row{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		fileLayer = append(fileLayer, row{m.Name, m.Unit, m.Better})
	}
	if !slices.Equal(e2e, fileE2E) {
		t.Errorf("end-to-end metrics differ:\n harness %v\n file    %v", e2e, fileE2E)
	}
	if !slices.Equal(layer, fileLayer) {
		t.Errorf("per-layer metrics differ:\n harness %v\n file    %v", layer, fileLayer)
	}
}

// TestQuickSmoke builds the five binaries and runs two passes of one op
// of every workload through the real harness: against the golden where
// the op's solves prove optimality, against itself where they end at
// the wall-clock deadline.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code, err := run(context.Background(), root, options{seed: 1, quick: true, sets: 1, trace: -1}, &out)
	if err != nil || code != 0 {
		t.Fatalf("quick run: exit %d, %v\n%s", code, err, out.String())
	}
	text := out.String()
	for _, w := range workloads {
		if !strings.Contains(text, "== "+w.Name+"  seed 1  2 passes  2 ops  0 failed ==") {
			t.Errorf("no clean one-op run of %s in the output", w.Name)
		}
	}
	for _, d := range catalogue {
		if n := strings.Count(text, " "+d.Name+" "); n != len(workloads) {
			t.Errorf("metric %s printed %d times, want once per workload", d.Name, n)
		}
	}
	if strings.Contains(text, "FAILED") {
		t.Errorf("failures reported:\n%s", text)
	}
}

// TestMain lets the test binary stand in for fast-bench where the
// harness re-executes itself: traceWorkload starts its traced children
// as `<self> -inproc <request>`.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-inproc" {
		if err := inprocMain(os.Args[2]); err != nil {
			fatal(err)
		}
		return
	}
	os.Exit(m.Run())
}

// checkTraced holds one traced run to what the harness relies on: every
// name is in the catalogue (metricSet.set panics on any other), every
// metric in want is there, and the named children plus the root's self
// time are the root.
func checkTraced(t *testing.T, res inprocResult, want, children []string) {
	t.Helper()
	if res.ReplayMismatch {
		t.Error("a fresh optimizer fed the transcript proposed different points")
	}
	for name := range res.Metrics {
		if defOf(name) == nil {
			t.Errorf("metric %s is not in the catalogue", name)
		}
	}
	for _, name := range want {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("metric %s is not set", name)
		}
	}
	root := res.Metrics["core.study_run_s"]
	sum := res.Metrics["core.self_s"]
	for _, c := range children {
		sum += res.Metrics[c]
	}
	if root <= 0 || root != res.RootS || math.Abs(sum-root) > 1e-6*root {
		t.Errorf("children + self = %v, root %v (RootS %v)", sum, root, res.RootS)
	}
	if len(res.Spans) == 0 || res.Spans[0].Name != "core.study_run" || res.Spans[0].Parent != -1 {
		t.Errorf("spans do not start with the root: %+v", res.Spans)
	}
}

// TestTracedRun runs the in-process traced path on ops that solve in
// milliseconds: a report, a scalar study as serve_fsync submits it, and
// a small Pareto study.
func TestTracedRun(t *testing.T) {
	var replayed []string
	for _, d := range catalogue {
		if strings.HasPrefix(d.Doc, "replay:") {
			replayed = append(replayed, d.Name)
		}
	}
	onlyStudy := func(name string) bool {
		return strings.HasPrefix(name, "search.") || strings.HasPrefix(name, "store.")
	}

	rep, err := tracedReport(inprocSpec{Model: "ocr-rpn", Design: "fast-small"}, true)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.DeleteFunc(slices.Clone(replayed), onlyStudy)
	checkTraced(t, rep, append(want, "bench.unattributed_ratio"), []string{"models.build_s", "sim.compile_s", "core.report_tail_s"})
	if rep.Metrics["fusion.proven"] != 1 {
		t.Errorf("ocr-rpn on fast-small no longer proves optimality: %v", rep.Metrics)
	}

	for _, sp := range []inprocSpec{
		{Workloads: []string{"resnet50"}, Trials: 256, Seed: 0, BatchSize: 8},
		{Workloads: []string{"ocr-rpn"}, Objectives: []string{"perf-per-tdp", "area"}, Trials: 128, Seed: 1},
	} {
		plain, err := tracedStudy(sp, false, "", t.TempDir())
		if err != nil || plain.RootS <= 0 || plain.Metrics != nil {
			t.Fatalf("untraced %+v: %+v, %v", sp, plain, err)
		}
		res, err := tracedStudy(sp, true, "", t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		want := append(slices.Clone(replayed), "core.evaluate_batch_calls", "core.unique_ratio", "bench.unattributed_ratio")
		checkTraced(t, res, want, []string{"core.evaluate_batch_s", "core.report_tail_s"})
		if res.Metrics["store.appends"] != res.Metrics["search.asks"] || res.Metrics["search.asks"] == 0 {
			t.Errorf("%v batches asked, %v appended", res.Metrics["search.asks"], res.Metrics["store.appends"])
		}
	}
}

// TestTracedSmoke takes the contract's per-layer run (-trace 1) through
// the real harness on two workloads whose solves all prove optimality:
// set-up, the untraced and traced children, the timed passes, and the
// result line with every per-layer metric.
func TestTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"report_exact", "pareto_512_workers2"} {
		var out bytes.Buffer
		code, err := run(context.Background(), root, options{workload: name, seed: 1, quick: true, sets: 1, trace: 1}, &out)
		if err != nil || code != 0 {
			t.Fatalf("%s: exit %d, %v\n%s", name, code, err, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line struct {
			Correct bool
			Failed  int
			Metrics map[string]struct{ Value float64 }
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("%s: last line is not the result object: %v", name, err)
		}
		if !line.Correct || line.Failed != 0 {
			t.Errorf("%s: %s", name, lines[len(lines)-1])
		}
		for _, d := range catalogue {
			if _, ok := line.Metrics[d.Name]; ok == d.E2E {
				t.Errorf("%s: per-layer line and metric %s (end-to-end %v)", name, d.Name, d.E2E)
			}
		}
		for _, m := range []string{"core.study_run_s", "sim.compile_s", "fusion.exact_s", "bench.trace_overhead_ratio"} {
			if line.Metrics[m].Value <= 0 {
				t.Errorf("%s: %s = %v", name, m, line.Metrics[m].Value)
			}
		}
		if name == "pareto_512_workers2" && (line.Metrics["dispatch.search_overhead_ratio"].Value <= 0 || line.Metrics["dispatch.remote_points"].Value <= 0) {
			t.Errorf("%s: no dispatch metrics: %s", name, lines[len(lines)-1])
		}
	}
}
