package serve

// Tests for the split between the two durable records: status.json is
// the lifecycle record, replaced when a run is created, launched and
// finished, and the transcript is the only record of progress.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"fast/internal/search"
	"fast/internal/store"
)

// TestStatusWritesPerRun: status.json replacements do not scale with
// batches. A 1-batch study and a 32-batch study replace it equally
// often, at most three times (create, launch, finish).
func TestStatusWritesPerRun(t *testing.T) {
	var mu sync.Mutex
	renames := map[string]int{} // study id -> status.json renames
	ts := newTestServer(t, t.TempDir(), func(c *Config) {
		c.Store.SetFaultHook(func(op store.FaultOp, path string) error {
			if op == store.OpRename && filepath.Base(path) == "status.json" {
				mu.Lock()
				renames[filepath.Base(filepath.Dir(path))]++
				mu.Unlock()
			}
			return nil
		})
	})
	defer ts.stop()
	base := ts.http.URL

	doJSON(t, "POST", base+"/v1/studies", smallSpec("one", 8, 8), http.StatusCreated)
	doJSON(t, "POST", base+"/v1/studies", smallSpec("many", 256, 8), http.StatusCreated)
	waitFor(t, base, "one", "one done", stateIs(store.StateDone))
	waitFor(t, base, "many", "many done", stateIs(store.StateDone))
	// The finish record lands after the state is published; Close waits
	// for every run goroutine, so the counts below are final.
	ts.stop()

	dir := ts.srv.cfg.Store.Root()
	for id, batches := range map[string]int{"one": 1, "many": 32} {
		if got := len(transcriptLines(t, dir, id)) - 1; got != batches {
			t.Fatalf("%s: %d transcript batches, want %d", id, got, batches)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if renames["one"] != renames["many"] || renames["many"] > 3 {
		t.Errorf("status.json replacements: 1-batch study %d, 32-batch study %d; want equal and <= 3",
			renames["one"], renames["many"])
	}
}

// TestRestartDerivesProgressFromTranscript: after a crash, trials_done
// and best_value come from the transcript's durable prefix, not from
// the lifecycle record — even one in an earlier release's format that
// still carries (stale) progress fields. A torn final line does not
// count, and an unreadable transcript lists with no progress.
func TestRestartDerivesProgressFromTranscript(t *testing.T) {
	dir := t.TempDir()
	sto, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := sto.Create(store.Spec{
		Tenant: "default", ID: "killed", Workloads: []string{"mobilenetv2"},
		Algorithm: "lcs", Trials: 64, Seed: 5, BatchSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sd.BeginTranscript(search.AlgLCS, 5, 64); err != nil {
		t.Fatal(err)
	}
	// Three batches of eight. The best feasible value is 40.5 (trial
	// 13); trial 20 scores higher but is infeasible.
	for b := 0; b < 3; b++ {
		batch := make([]search.Trial, 8)
		for i := range batch {
			n := 8*b + i
			batch[i].Index[0] = n
			batch[i].Value = float64(n)
			batch[i].Feasible = n%4 != 0
		}
		if b == 1 {
			batch[5].Value = 40.5
		}
		if b == 2 {
			batch[4].Value = 99
		}
		if _, err := sd.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := sd.CloseTranscript(); err != nil {
		t.Fatal(err)
	}
	// The status a SIGKILL mid-run left behind in the earlier format:
	// running, with progress fields two batches behind the transcript.
	statusPath := filepath.Join(sd.Dir(), "status.json")
	old := `{"state":"running","trials_done":16,"trials_target":64,"best_value":15,"best_feasible":true}`
	if err := os.WriteFile(statusPath, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var logs strings.Builder
	restart := func() *testServer {
		t.Helper()
		ts := newTestServer(t, dir, func(c *Config) {
			c.Logf = func(format string, args ...any) {
				mu.Lock()
				fmt.Fprintf(&logs, format+"\n", args...)
				mu.Unlock()
			}
		})
		t.Cleanup(ts.stop)
		return ts
	}
	get := func(ts *testServer) map[string]any {
		t.Helper()
		return doJSON(t, "GET", ts.http.URL+"/v1/studies/killed", nil, http.StatusOK)
	}
	check := func(phase string, sum map[string]any, wantDone int, wantBest float64) {
		t.Helper()
		if sum["state"] != store.StateInterrupted {
			t.Errorf("%s: state = %v, want interrupted", phase, sum["state"])
		}
		if got, _ := sum["trials_done"].(float64); int(got) != wantDone {
			t.Errorf("%s: trials_done = %v, want %d", phase, sum["trials_done"], wantDone)
		}
		if got, _ := sum["best_value"].(float64); got != wantBest {
			t.Errorf("%s: best_value = %v, want %v", phase, sum["best_value"], wantBest)
		}
		if feasible := sum["best_feasible"] == true; feasible != (wantDone > 0) {
			t.Errorf("%s: best_feasible = %v", phase, sum["best_feasible"])
		}
	}

	ts := restart()
	check("after crash", get(ts), 24, 40.5)
	ts.stop()

	// A crash mid-append tears the final line: only the durable prefix
	// counts, exactly as resume counts it.
	tp := filepath.Join(sd.Dir(), "transcript.jsonl")
	f, err := os.OpenFile(tp, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"trials":[{"index":[1,2,3],"value":500,"feasi`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	ts = restart()
	check("torn tail", get(ts), 24, 40.5)
	ts.stop()

	// Corruption before the final line: the study still lists, with no
	// progress and a warning, and resume answers 409.
	data, err := os.ReadFile(tp)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines[1] = "not a batch\n"
	if err := os.WriteFile(tp, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	logs.Reset()
	mu.Unlock()
	ts = restart()
	check("corrupt transcript", get(ts), 0, 0)
	doJSON(t, "POST", ts.http.URL+"/v1/studies/killed/resume", nil, http.StatusConflict)
	ts.stop()
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(logs.String(), "unreadable transcript") || !strings.Contains(logs.String(), "id=killed") {
		t.Errorf("no warning for the unreadable transcript; log:\n%s", logs.String())
	}
}

// TestSummaryBestValueIsRaw: the summary's best_value and the streamed
// front frames carry raw objective values, as the result document
// reports them, also when the first objective is minimized and across
// a restart. The spec names no algorithm: the summary and the
// transcript header carry the one the study resolved to, nsga2.
func TestSummaryBestValueIsRaw(t *testing.T) {
	dir := t.TempDir()
	// The batch hook parks the study until the event stream is attached,
	// so no front frame is published before the subscription.
	attached := make(chan struct{})
	var gate sync.Once
	release := func() { gate.Do(func() { close(attached) }) }
	ts := newTestServer(t, dir, func(c *Config) {
		c.batchHook = func(string, string) { <-attached }
	})
	defer ts.stop()
	defer release()
	doJSON(t, "POST", ts.http.URL+"/v1/studies", map[string]any{
		"id": "area", "workloads": []string{"mobilenetv2"},
		"objectives": []string{"area", "perf-per-tdp"}, "trials": 32, "seed": 2,
		"batch_size": 8, "front_cap": 4,
	}, http.StatusCreated)
	streamed := lastFrontFrame(t, ts.http.URL+"/v1/studies/area/events", release)
	sum := waitFor(t, ts.http.URL, "area", "done", stateIs(store.StateDone))
	res := doJSON(t, "GET", ts.http.URL+"/v1/studies/area/result", nil, http.StatusOK)
	best, _ := res["best_value"].(float64)
	if best <= 0 {
		t.Fatalf("result best_value = %v, want a positive area", res["best_value"])
	}
	var resultFront []string
	for _, pt := range res["front"].([]any) {
		resultFront = append(resultFront, fmt.Sprint(pt.(map[string]any)["values"]))
	}
	if len(streamed) == 0 {
		t.Fatal("no front frame streamed")
	}
	var streamedFront []string
	for _, pt := range streamed {
		for _, v := range pt.Values {
			if v <= 0 {
				t.Errorf("streamed front value %v, want natural units (positive)", v)
			}
		}
		// Decoded as []any, like the result document's values.
		vals := make([]any, len(pt.Values))
		for k, v := range pt.Values {
			vals[k] = v
		}
		streamedFront = append(streamedFront, fmt.Sprint(vals))
	}
	sort.Strings(resultFront)
	sort.Strings(streamedFront)
	if strings.Join(resultFront, ";") != strings.Join(streamedFront, ";") {
		t.Errorf("last front frame %v, result front %v", streamedFront, resultFront)
	}
	if sum["best_value"] != best {
		t.Errorf("summary best_value = %v, result best_value = %v", sum["best_value"], best)
	}
	if sum["algorithm"] != string(search.AlgNSGA2) {
		t.Errorf("summary algorithm = %v, want nsga2", sum["algorithm"])
	}
	ts.stop()

	ts2 := newTestServer(t, dir, nil)
	defer ts2.stop()
	sum = doJSON(t, "GET", ts2.http.URL+"/v1/studies/area", nil, http.StatusOK)
	if sum["best_value"] != best || sum["algorithm"] != string(search.AlgNSGA2) {
		t.Errorf("after restart best_value = %v, algorithm = %v, want %v, nsga2", sum["best_value"], sum["algorithm"], best)
	}
	stored, err := ts2.srv.cfg.Store.Get("default", "area")
	if err != nil {
		t.Fatal(err)
	}
	if snap, _, err := stored.Snapshot(); err != nil || snap.Algorithm != search.AlgNSGA2 {
		t.Errorf("transcript header algorithm = %q (err %v), want nsga2", snap.Algorithm, err)
	}
}

// lastFrontFrame reads a study's event stream to its done frame and
// returns the last front frame's points; attached runs once the stream
// is subscribed.
func lastFrontFrame(t *testing.T, url string, attached func()) []struct{ Values []float64 } {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	attached()
	var front []struct{ Values []float64 }
	event := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			if event == "done" {
				return front
			}
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && event == "front" {
			front = nil
			if err := json.Unmarshal([]byte(data), &front); err != nil {
				t.Fatalf("front frame %s: %v", data, err)
			}
		}
	}
	t.Fatalf("event stream ended without a done frame (err %v)", sc.Err())
	return nil
}
