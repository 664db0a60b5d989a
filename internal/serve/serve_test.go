package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fast/internal/store"
)

// testServer wires a daemon onto an httptest listener over a store
// directory.
type testServer struct {
	srv  *Server
	http *httptest.Server
}

func newTestServer(t *testing.T, dir string, mutate func(*Config)) *testServer {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Store: st, Parallelism: 2}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	return &testServer{srv: srv, http: hs}
}

// stop shuts the daemon down like a process exit: running studies
// become interrupted.
func (ts *testServer) stop() {
	ts.http.Close()
	ts.srv.Close()
}

func doJSON(t *testing.T, method, url string, body any, wantCode int) map[string]any {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	dec := json.NewDecoder(resp.Body)
	dec.Decode(&out) //nolint:errcheck // some replies have empty bodies
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s = %d, want %d (body %v)", method, url, resp.StatusCode, wantCode, out)
	}
	return out
}

// waitFor polls the study summary until pred is satisfied.
func waitFor(t *testing.T, base, id string, what string, pred func(map[string]any) bool) map[string]any {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		sum := doJSON(t, "GET", base+"/v1/studies/"+id, nil, http.StatusOK)
		if pred(sum) {
			return sum
		}
		if sum["state"] == store.StateFailed {
			t.Fatalf("study %s failed: %v", id, sum["error"])
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s on study %s", what, id)
	return nil
}

func stateIs(states ...string) func(map[string]any) bool {
	return func(sum map[string]any) bool {
		for _, s := range states {
			if sum["state"] == s {
				return true
			}
		}
		return false
	}
}

func trialsAtLeast(n int) func(map[string]any) bool {
	return func(sum map[string]any) bool {
		done, _ := sum["trials_done"].(float64)
		return int(done) >= n
	}
}

// TestSubmitRunResult drives the happy path end to end: submit, watch
// it finish, fetch the report, scrape the metrics.
func TestSubmitRunResult(t *testing.T) {
	ts := newTestServer(t, t.TempDir(), nil)
	defer ts.stop()
	base := ts.http.URL

	created := doJSON(t, "POST", base+"/v1/studies", map[string]any{
		"id": "happy", "workloads": []string{"mobilenetv2"},
		"algorithm": "random", "trials": 24, "seed": 5, "batch_size": 8,
	}, http.StatusCreated)
	if created["state"] != store.StateQueued && created["state"] != store.StateRunning {
		t.Fatalf("created state = %v", created["state"])
	}

	sum := waitFor(t, base, "happy", "done", stateIs(store.StateDone))
	if done, _ := sum["trials_done"].(float64); int(done) != 24 {
		t.Errorf("trials_done = %v, want 24", sum["trials_done"])
	}
	if sum["best_feasible"] != true {
		t.Errorf("best_feasible = %v", sum["best_feasible"])
	}

	res := doJSON(t, "GET", base+"/v1/studies/happy/result", nil, http.StatusOK)
	if res["best"] == nil || res["per_workload"] == nil {
		t.Errorf("result missing best design or per-workload report: %v", res)
	}

	vars := doJSON(t, "GET", base+"/debug/vars", nil, http.StatusOK)
	if trials, _ := vars["fastserve_trials_total"].(float64); int(trials) < 24 {
		t.Errorf("fastserve_trials_total = %v, want >= 24", vars["fastserve_trials_total"])
	}
	if vars["fastserve_checkpoint_writes_total"].(float64) < 3 {
		t.Errorf("checkpoint writes = %v, want >= 3", vars["fastserve_checkpoint_writes_total"])
	}
	if _, ok := vars["fast_plan_cache_entries"]; !ok {
		t.Error("plan cache metrics missing from /debug/vars")
	}
	doJSON(t, "GET", base+"/healthz", nil, http.StatusOK)

	// The durable record exists and matches.
	status := doJSON(t, "GET", base+"/v1/studies/happy", nil, http.StatusOK)
	if status["state"] != store.StateDone {
		t.Errorf("state = %v after completion", status["state"])
	}
	if _, err := os.Stat(filepath.Join(ts.srv.cfg.Store.Root(), "default", "happy", "transcript.jsonl")); err != nil {
		t.Errorf("transcript missing: %v", err)
	}
}

// TestRestartResumeDifferential is the daemon-level durability
// acceptance test: a study interrupted by a process shutdown and
// resumed by a fresh process on the same data directory continues on
// the bit-identical transcript an uninterrupted daemon produces — at
// parallelism 1 and 4.
func TestRestartResumeDifferential(t *testing.T) {
	spec := map[string]any{
		"id": "diff", "workloads": []string{"mobilenetv2"},
		"algorithm": "lcs", "trials": 600, "seed": 11, "batch_size": 8,
	}
	const compare = 96 // trials to compare; both runs are canceled past this point

	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			// Pace batches: with warm plan caches a 600-trial study can
			// finish in milliseconds, leaving no window to interrupt it.
			mutate := func(c *Config) {
				c.Parallelism = par
				c.batchHook = func(string, string) { time.Sleep(2 * time.Millisecond) }
			}

			// Interrupted daemon: kill the process after ≥2 batches.
			dirA := t.TempDir()
			a1 := newTestServer(t, dirA, mutate)
			doJSON(t, "POST", a1.http.URL+"/v1/studies", spec, http.StatusCreated)
			waitFor(t, a1.http.URL, "diff", "first checkpoints", trialsAtLeast(16))
			a1.stop() // shutdown == crash for durability purposes

			// Fresh process on the same directory: the study must come
			// back interrupted, then resume to past the comparison
			// horizon.
			a2 := newTestServer(t, dirA, mutate)
			defer a2.stop()
			sum := doJSON(t, "GET", a2.http.URL+"/v1/studies/diff", nil, http.StatusOK)
			if sum["state"] != store.StateInterrupted {
				t.Fatalf("state after restart = %v, want interrupted", sum["state"])
			}
			resumed := doJSON(t, "POST", a2.http.URL+"/v1/studies/diff/resume", nil, http.StatusAccepted)
			if got, _ := resumed["trials_done"].(float64); int(got) < 16 {
				t.Fatalf("resume lost checkpointed trials: %v", resumed["trials_done"])
			}
			waitFor(t, a2.http.URL, "diff", "resumed progress", trialsAtLeast(compare))
			cancelStudy(t, a2.http.URL, "diff")

			// Uninterrupted daemon on a second directory.
			dirB := t.TempDir()
			b := newTestServer(t, dirB, mutate)
			defer b.stop()
			doJSON(t, "POST", b.http.URL+"/v1/studies", spec, http.StatusCreated)
			waitFor(t, b.http.URL, "diff", "reference progress", trialsAtLeast(compare))
			cancelStudy(t, b.http.URL, "diff")

			// The transcripts must agree line for line (header + every
			// complete batch) up to the shorter one — and both cover the
			// comparison horizon.
			linesA := transcriptLines(t, dirA, "diff")
			linesB := transcriptLines(t, dirB, "diff")
			n := len(linesA)
			if len(linesB) < n {
				n = len(linesB)
			}
			if wantLines := 1 + compare/8; n < wantLines {
				t.Fatalf("only %d transcript lines to compare, want >= %d", n, wantLines)
			}
			for i := 0; i < n; i++ {
				if linesA[i] != linesB[i] {
					t.Fatalf("transcript line %d differs across restart:\n  interrupted: %s\n  reference:   %s",
						i, linesA[i], linesB[i])
				}
			}
		})
	}
}

// TestNewSkipsCorruptStudy: restart recovery skips a study whose spec
// is unreadable even when it is the only one in the data directory;
// only a data root that cannot be listed stops the daemon.
func TestNewSkipsCorruptStudy(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "default", "broken")
	if err := os.MkdirAll(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, "spec.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, dir, nil)
	defer ts.stop()
	if got := doJSON(t, "GET", ts.http.URL+"/v1/studies", nil, http.StatusOK)["studies"]; got != nil {
		t.Errorf("studies = %v, want none", got)
	}
	doJSON(t, "POST", ts.http.URL+"/v1/studies", smallSpec("fresh", 8, 4), http.StatusCreated)
	waitFor(t, ts.http.URL, "fresh", "fresh done", stateIs(store.StateDone))

	gone, err := store.Open(filepath.Join(t.TempDir(), "gone"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(gone.Root()); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Store: gone}); err == nil {
		t.Error("New over an unlistable data root succeeded")
	}
}

// cancelStudy stops a study and waits for a terminal state, tolerating
// the race where the study finishes on its own first.
func cancelStudy(t *testing.T, base, id string) {
	t.Helper()
	if code := rawStatus(t, "POST", base+"/v1/studies/"+id+"/cancel", nil); code != http.StatusAccepted && code != http.StatusConflict {
		t.Fatalf("cancel %s = %d", id, code)
	}
	waitFor(t, base, id, "terminal", stateIs(store.StateCanceled, store.StateDone))
}

// transcriptLines returns the lines of one default-tenant study's
// transcript.
func transcriptLines(t *testing.T, dir, id string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "default", id, "transcript.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	return lines
}

// TestResumeExtendsAndRematerializes: resuming a done study with a
// higher trial target warm-continues it; resuming with the same target
// re-derives the final report after a restart.
func TestResumeExtendsAndRematerializes(t *testing.T) {
	dir := t.TempDir()
	ts := newTestServer(t, dir, nil)
	doJSON(t, "POST", ts.http.URL+"/v1/studies", map[string]any{
		"id": "ext", "workloads": []string{"mobilenetv2"},
		"algorithm": "random", "trials": 16, "seed": 3, "batch_size": 8,
	}, http.StatusCreated)
	waitFor(t, ts.http.URL, "ext", "done", stateIs(store.StateDone))
	res1 := doJSON(t, "GET", ts.http.URL+"/v1/studies/ext/result", nil, http.StatusOK)
	ts.stop()

	// Fresh process: done studies stay done, but the in-memory report is
	// gone until a resume re-derives it.
	ts2 := newTestServer(t, dir, nil)
	defer ts2.stop()
	doJSON(t, "GET", ts2.http.URL+"/v1/studies/ext/result", nil, http.StatusConflict)
	doJSON(t, "POST", ts2.http.URL+"/v1/studies/ext/resume", nil, http.StatusAccepted)
	waitFor(t, ts2.http.URL, "ext", "rematerialized", stateIs(store.StateDone))
	res2 := doJSON(t, "GET", ts2.http.URL+"/v1/studies/ext/result", nil, http.StatusOK)
	if res1["best_value"] != res2["best_value"] {
		t.Errorf("re-materialized best value %v != original %v", res2["best_value"], res1["best_value"])
	}

	// Extend the budget: 16 → 32 trials, warm-continuing the search.
	doJSON(t, "POST", ts2.http.URL+"/v1/studies/ext/resume", map[string]any{"trials": 32}, http.StatusAccepted)
	sum := waitFor(t, ts2.http.URL, "ext", "extended done", func(m map[string]any) bool {
		return m["state"] == store.StateDone && m["trials_done"].(float64) >= 32
	})
	if sum["trials_done"].(float64) != 32 {
		t.Errorf("extended trials_done = %v, want 32", sum["trials_done"])
	}
}

// TestMultiObjectiveStudy: Pareto studies surface their front in the
// result payload and stream front events.
func TestMultiObjectiveStudy(t *testing.T) {
	ts := newTestServer(t, t.TempDir(), nil)
	defer ts.stop()
	doJSON(t, "POST", ts.http.URL+"/v1/studies", map[string]any{
		"id": "pareto", "workloads": []string{"mobilenetv2"},
		"objectives": []string{"perf", "tdp"}, "trials": 32, "seed": 2,
		"batch_size": 8, "front_cap": 4,
	}, http.StatusCreated)
	waitFor(t, ts.http.URL, "pareto", "done", stateIs(store.StateDone))
	res := doJSON(t, "GET", ts.http.URL+"/v1/studies/pareto/result", nil, http.StatusOK)
	front, _ := res["front"].([]any)
	if len(front) == 0 || len(front) > 4 {
		t.Fatalf("front size = %d, want 1..4", len(front))
	}
	pt := front[0].(map[string]any)
	if pt["values"] == nil || pt["per_workload"] == nil {
		t.Errorf("front point missing values or per-workload report: %v", pt)
	}
}

// TestQuotas: per-tenant study and concurrency limits hold, and other
// tenants are unaffected. The batch hook holds the first study mid-run
// so the concurrency assertions are deterministic, not timing-based.
func TestQuotas(t *testing.T) {
	release := make(chan struct{})
	ts := newTestServer(t, t.TempDir(), func(c *Config) {
		c.MaxStudiesPerTenant = 2
		c.MaxActivePerTenant = 1
		c.batchHook = func(tenant, _ string) {
			if tenant == "default" {
				<-release
			}
		}
	})
	defer ts.stop()
	// Registered after ts.stop so it runs first: stop() waits for run
	// goroutines, which can be parked in the hook.
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()
	base := ts.http.URL

	long := func(id string) map[string]any {
		return map[string]any{
			"id": id, "workloads": []string{"mobilenetv2"},
			"algorithm": "lcs", "trials": 600, "seed": 1, "batch_size": 8,
		}
	}
	doJSON(t, "POST", base+"/v1/studies", long("q1"), http.StatusCreated)
	// q1 holds the tenant's single slot (parked in the batch hook) before
	// q2 is submitted, so q2 must queue behind it.
	waitFor(t, base, "q1", "q1 running", stateIs(store.StateRunning))
	doJSON(t, "POST", base+"/v1/studies", long("q2"), http.StatusCreated)
	doJSON(t, "POST", base+"/v1/studies", long("q3"), http.StatusTooManyRequests)

	// Another tenant is not affected by the first tenant's quota or its
	// parked slot.
	other := map[string]any{
		"id": "b1", "workloads": []string{"mobilenetv2"},
		"algorithm": "random", "trials": 16, "seed": 1, "batch_size": 8,
	}
	doJSON(t, "POST", base+"/v1/studies?tenant=tenant-b", other, http.StatusCreated)
	waitFor(t, base, "b1?tenant=tenant-b", "tenant-b done", stateIs(store.StateDone))

	// q2 queued behind q1's held slot — still queued after tenant-b's
	// whole study ran to completion.
	sum := doJSON(t, "GET", base+"/v1/studies/q2", nil, http.StatusOK)
	if sum["state"] != store.StateQueued {
		t.Errorf("q2 state = %v while q1 holds the slot, want queued (MaxActivePerTenant=1)", sum["state"])
	}

	// Canceling q1 and releasing the hook frees the slot; q2 proceeds.
	doJSON(t, "POST", base+"/v1/studies/q1/cancel", nil, http.StatusAccepted)
	close(release)
	released = true
	waitFor(t, base, "q1", "q1 canceled", stateIs(store.StateCanceled))
	waitFor(t, base, "q2", "q2 terminal", stateIs(store.StateDone, store.StateCanceled))
}

// TestValidation: malformed submissions are rejected with 4xx before
// anything is stored.
func TestValidation(t *testing.T) {
	ts := newTestServer(t, t.TempDir(), nil)
	defer ts.stop()
	base := ts.http.URL
	ok := map[string]any{"workloads": []string{"mobilenetv2"}, "trials": 8}

	cases := []map[string]any{
		{"trials": 8}, // no workloads
		{"workloads": []string{"no-such-net"}, "trials": 8},
		{"workloads": []string{"mobilenetv2"}}, // no trials
		{"workloads": []string{"mobilenetv2"}, "trials": 999999},
		{"workloads": []string{"mobilenetv2"}, "trials": 8, "algorithm": "gradient-descent"},
		{"workloads": []string{"mobilenetv2"}, "trials": 8, "objective": "qps-per-dollar"},
		{"workloads": []string{"mobilenetv2"}, "trials": 8, "id": "../escape"},
		{"workloads": []string{"mobilenetv2"}, "trials": 8, "tenant": "a/b"},
		// Misspelled keys are refused, not dropped in favour of a default.
		{"workloads": []string{"mobilenetv2"}, "trials": 8, "ilp_node": 5},
		{"workloads": []string{"mobilenetv2"}, "trials": 8, "batchsize": 4},
	}
	for _, c := range cases {
		if code := rawStatus(t, "POST", base+"/v1/studies", c); code < 400 || code >= 500 {
			t.Errorf("submission %v = %d, want 4xx", c, code)
		}
	}

	doJSON(t, "GET", base+"/v1/studies/missing", nil, http.StatusNotFound)
	doJSON(t, "POST", base+"/v1/studies/missing/cancel", nil, http.StatusNotFound)
	doJSON(t, "POST", base+"/v1/studies/missing/resume", nil, http.StatusNotFound)

	created := doJSON(t, "POST", base+"/v1/studies", ok, http.StatusCreated)
	id := created["id"].(string)
	if !strings.HasPrefix(id, "study-") {
		t.Errorf("generated id = %q", id)
	}
	waitFor(t, base, id, "done", stateIs(store.StateDone))
	// Terminal studies reject cancel and double resume rejects while queued/running.
	doJSON(t, "POST", base+"/v1/studies/"+id+"/cancel", nil, http.StatusConflict)
	doJSON(t, "POST", base+"/v1/studies/"+id+"/resume", map[string]any{"trial": 16}, http.StatusBadRequest)
}

func rawStatus(t *testing.T, method, url string, body any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(method, url, bytes.NewReader(data))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestEventStream: the SSE endpoint delivers state, progress, and done
// frames for a study. The batch hook parks the study until the stream
// is attached so progress frames cannot race the subscription.
func TestEventStream(t *testing.T) {
	attached := make(chan struct{})
	var gate sync.Once
	ts := newTestServer(t, t.TempDir(), func(c *Config) {
		c.batchHook = func(string, string) { <-attached }
	})
	defer func() {
		gate.Do(func() { close(attached) })
		ts.stop()
	}()
	base := ts.http.URL

	doJSON(t, "POST", base+"/v1/studies", map[string]any{
		"id": "sse", "workloads": []string{"mobilenetv2"},
		"algorithm": "lcs", "trials": 48, "seed": 9, "batch_size": 8,
	}, http.StatusCreated)

	resp, err := http.Get(base + "/v1/studies/sse/events")
	if err != nil {
		t.Fatal(err)
	}
	gate.Do(func() { close(attached) })
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("Content-Type = %q", ct)
	}

	events := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	deadline := time.After(120 * time.Second)
	lineCh := make(chan string)
	go func() {
		for sc.Scan() {
			lineCh <- sc.Text()
		}
		close(lineCh)
	}()
read:
	for {
		select {
		case line, open := <-lineCh:
			if !open {
				break read
			}
			if name, ok := strings.CutPrefix(line, "event: "); ok {
				events[name]++
				if name == "done" {
					break read
				}
			}
		case <-deadline:
			t.Fatalf("no done event; saw %v", events)
		}
	}
	if events["state"] == 0 || events["done"] == 0 {
		t.Errorf("missing lifecycle frames: %v", events)
	}
	if events["progress"] == 0 {
		t.Errorf("no progress frames: %v", events)
	}
}
