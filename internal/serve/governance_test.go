package serve

// Tests for the resource-governance layer: admission shedding with
// Retry-After, study deadlines, panic quarantine, and SSE behaviour
// under client disconnects and concurrent cancels.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fast/internal/store"
)

// leakCheck fails the test if goroutines spawned during it are still
// alive once every deferred shutdown has run. Register it first so its
// cleanup runs last (after the deferred ts.stop()).
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
	})
}

// postJSON performs one POST and returns the raw response plus the
// decoded body, so callers can assert on headers (Retry-After).
func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out) //nolint:errcheck // some replies have empty bodies
	return resp, out
}

// waitTerminal polls until the study reaches any terminal state
// (waitFor fatals on "failed", which several governance tests expect).
func waitTerminal(t *testing.T, base, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		sum := doJSON(t, "GET", base+"/v1/studies/"+id, nil, http.StatusOK)
		switch sum["state"] {
		case store.StateDone, store.StateFailed, store.StateCanceled, store.StateInterrupted:
			return sum
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for a terminal state on study %s", id)
	return nil
}

func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	vars := doJSON(t, "GET", base+"/debug/vars", nil, http.StatusOK)
	v, _ := vars[name].(float64)
	return v
}

func smallSpec(id string, trials, batch int) map[string]any {
	return map[string]any{
		"id": id, "workloads": []string{"mobilenetv2"},
		"algorithm": "lcs", "trials": trials, "seed": 5, "batch_size": batch,
	}
}

// TestShedQueueFull: submissions beyond the per-tenant queue bound are
// shed 429 with a Retry-After hint while in-quota studies keep running.
func TestShedQueueFull(t *testing.T) {
	release := make(chan struct{})
	ts := newTestServer(t, t.TempDir(), func(c *Config) {
		c.MaxStudiesPerTenant = 10
		c.MaxActivePerTenant = 1
		c.MaxQueuedPerTenant = 1
		c.batchHook = func(tenant, _ string) {
			if tenant == "default" {
				<-release
			}
		}
	})
	defer ts.stop()
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()
	base := ts.http.URL

	doJSON(t, "POST", base+"/v1/studies", smallSpec("g1", 600, 8), http.StatusCreated)
	waitFor(t, base, "g1", "g1 running", stateIs(store.StateRunning))
	doJSON(t, "POST", base+"/v1/studies", smallSpec("g2", 600, 8), http.StatusCreated)

	resp, body := postJSON(t, base+"/v1/studies", smallSpec("g3", 600, 8))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-queue submit = %d, want 429 (body %v)", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "5" {
		t.Errorf("Retry-After = %q, want %q", got, "5")
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "queue full") {
		t.Errorf("shed body = %v, want queue-full error", body)
	}
	if n := metricValue(t, base, "fastserve_shed_queue_total"); n < 1 {
		t.Errorf("fastserve_shed_queue_total = %v, want >= 1", n)
	}
	if n := metricValue(t, base, "fastserve_shed_total"); n < 1 {
		t.Errorf("fastserve_shed_total = %v, want >= 1", n)
	}

	// The shed did not disturb the in-quota studies.
	close(release)
	released = true
	waitFor(t, base, "g1", "g1 done", stateIs(store.StateDone))
	waitFor(t, base, "g2", "g2 done", stateIs(store.StateDone))
}

// TestStudyDeadline: a study whose wall-clock deadline fires mid-run
// fails with a retryable deadline error and keeps its durable prefix;
// after a restart the verdict survives and trials_done is the
// transcript's trial count.
func TestStudyDeadline(t *testing.T) {
	dir := t.TempDir()
	ts := newTestServer(t, dir, func(c *Config) {
		// Pace batches so the 100ms deadline lands mid-study.
		c.batchHook = func(string, string) { time.Sleep(20 * time.Millisecond) }
	})
	defer ts.stop()
	base := ts.http.URL

	spec := smallSpec("dl", 600, 8)
	spec["deadline_sec"] = 0.1
	doJSON(t, "POST", base+"/v1/studies", spec, http.StatusCreated)
	sum := waitTerminal(t, base, "dl")
	if sum["state"] != store.StateFailed {
		t.Fatalf("state = %v, want failed", sum["state"])
	}
	if msg, _ := sum["error"].(string); !strings.Contains(msg, "deadline exceeded") {
		t.Errorf("error = %q, want deadline message", msg)
	}
	if cls, _ := sum["error_class"].(string); cls != "retryable" {
		t.Errorf("error_class = %q, want retryable", cls)
	}
	if n := metricValue(t, base, "fastserve_deadline_expired_total"); n < 1 {
		t.Errorf("fastserve_deadline_expired_total = %v, want >= 1", n)
	}
	if done, _ := sum["trials_done"].(float64); done < 8 {
		t.Errorf("trials_done = %v, want the durable prefix (>= 8)", done)
	}
	ts.stop()

	ts2 := newTestServer(t, dir, nil)
	defer ts2.stop()
	sum = doJSON(t, "GET", ts2.http.URL+"/v1/studies/dl", nil, http.StatusOK)
	if sum["state"] != store.StateFailed {
		t.Errorf("state after restart = %v, want failed", sum["state"])
	}
	if cls, _ := sum["error_class"].(string); cls != "retryable" {
		t.Errorf("error_class after restart = %q, want retryable", cls)
	}
	stored, err := ts2.srv.cfg.Store.Get("default", "dl")
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := stored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if done, _ := sum["trials_done"].(float64); int(done) != len(snap.Trials) {
		t.Errorf("trials_done after restart = %v, want the transcript's %d", done, len(snap.Trials))
	}
}

// TestPanicQuarantine: a panic inside one study's drive fails that
// study terminally and leaves the daemon serving other studies.
func TestPanicQuarantine(t *testing.T) {
	ts := newTestServer(t, t.TempDir(), func(c *Config) {
		c.batchHook = func(_, id string) {
			if id == "boom" {
				panic("objective exploded")
			}
		}
	})
	defer ts.stop()
	base := ts.http.URL

	doJSON(t, "POST", base+"/v1/studies", smallSpec("boom", 8, 4), http.StatusCreated)
	sum := waitTerminal(t, base, "boom")
	if sum["state"] != store.StateFailed {
		t.Fatalf("state = %v, want failed", sum["state"])
	}
	if msg, _ := sum["error"].(string); !strings.Contains(msg, "panic") {
		t.Errorf("error = %q, want panic message", msg)
	}
	if cls, _ := sum["error_class"].(string); cls != "terminal" {
		t.Errorf("error_class = %q, want terminal", cls)
	}
	if n := metricValue(t, base, "fastserve_studies_quarantined_total"); n != 1 {
		t.Errorf("fastserve_studies_quarantined_total = %v, want 1", n)
	}

	// The daemon survived and other studies still run to completion.
	doJSON(t, "GET", base+"/healthz", nil, http.StatusOK)
	doJSON(t, "POST", base+"/v1/studies", smallSpec("fine", 8, 4), http.StatusCreated)
	waitFor(t, base, "fine", "fine done", stateIs(store.StateDone))
}

// TestSSEDisconnectAndConcurrentCancel: an abrupt client disconnect
// mid-stream leaks nothing, and a cancel racing a live subscriber
// still delivers the terminal frame.
func TestSSEDisconnectAndConcurrentCancel(t *testing.T) {
	leakCheck(t)
	hold := make(chan struct{})
	ts := newTestServer(t, t.TempDir(), func(c *Config) {
		c.batchHook = func(_, id string) {
			if id == "sse2" {
				<-hold
			}
		}
	})
	defer ts.stop()
	held := true
	defer func() {
		if held {
			close(hold)
		}
	}()
	base := ts.http.URL

	doJSON(t, "POST", base+"/v1/studies", smallSpec("sse2", 600, 8), http.StatusCreated)
	waitFor(t, base, "sse2", "sse2 running", stateIs(store.StateRunning))

	// Two subscribers; both see the opening state frame.
	openStream := func() (*http.Response, *bufio.Reader) {
		t.Helper()
		resp, err := http.Get(base + "/v1/studies/sse2/events")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("events = %d, want 200", resp.StatusCode)
		}
		rd := bufio.NewReader(resp.Body)
		line, err := rd.ReadString('\n')
		if err != nil || !strings.HasPrefix(line, "event: state") {
			t.Fatalf("opening frame = %q (err %v), want state event", line, err)
		}
		return resp, rd
	}
	respA, _ := openStream()
	respB, rdB := openStream()

	// A disconnects abruptly mid-stream; its handler must exit via the
	// request context without disturbing the hub or the study.
	respA.Body.Close()

	// Cancel while B is still subscribed, then release the parked batch
	// so the run goroutine can observe the cancellation.
	if code := rawStatus(t, "POST", base+"/v1/studies/sse2/cancel", nil); code != http.StatusAccepted {
		t.Fatalf("cancel = %d, want 202", code)
	}
	close(hold)
	held = false

	// B receives the terminal "done" frame for the canceled study.
	sawDone := false
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		line, err := rdB.ReadString('\n')
		if err != nil {
			break
		}
		if strings.HasPrefix(line, "event: done") {
			sawDone = true
			break
		}
	}
	respB.Body.Close()
	if !sawDone {
		t.Error("subscriber B never saw the terminal done frame")
	}
	waitFor(t, base, "sse2", "canceled", stateIs(store.StateCanceled))
	doJSON(t, "GET", base+"/healthz", nil, http.StatusOK)
}

// TestCreateWritesOutsideLock: a create's spec and status writes do not
// hold the server lock. The new study's spec fsync blocks in the fault
// seam, and a summary read of another study must still answer; the
// create then completes once the disk does.
func TestCreateWritesOutsideLock(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	ts := newTestServer(t, t.TempDir(), func(c *Config) {
		c.Store.SetFaultHook(func(op store.FaultOp, path string) error {
			if op == store.OpSync && filepath.Base(path) == "spec.json" && filepath.Base(filepath.Dir(path)) == "slow" {
				close(entered)
				<-release
			}
			return nil
		})
	})
	defer ts.stop()
	base := ts.http.URL
	doJSON(t, "POST", base+"/v1/studies", smallSpec("other", 8, 8), http.StatusCreated)

	created := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(smallSpec("slow", 8, 8))
		resp, err := http.Post(base+"/v1/studies", "application/json", bytes.NewReader(body))
		if err != nil {
			created <- 0
			return
		}
		resp.Body.Close()
		created <- resp.StatusCode
	}()
	<-entered
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(base + "/v1/studies/other")
	close(release)
	if err != nil {
		t.Fatalf("summary read while a create waits on the disk: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("summary read = %d, want 200", resp.StatusCode)
	}
	if code := <-created; code != http.StatusCreated {
		t.Fatalf("create = %d, want 201", code)
	}
	waitFor(t, base, "slow", "slow done", stateIs(store.StateDone))
}

// TestCreateFaultIsRetryable: a create whose status.json fsync fails is
// a 503 with Retry-After, not a 400, and burns nothing: once the disk
// recovers the same body creates the study, which runs to done.
func TestCreateFaultIsRetryable(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	dir := t.TempDir()
	ts := newTestServer(t, dir, func(c *Config) {
		c.Store.SetFaultHook(func(op store.FaultOp, path string) error {
			if failing.Load() && op == store.OpSync && filepath.Base(path) == "status.json" &&
				filepath.Base(filepath.Dir(path)) == "flaky" {
				return errors.New("EIO")
			}
			return nil
		})
	})
	defer ts.stop()
	base := ts.http.URL

	resp, body := postJSON(t, base+"/v1/studies", smallSpec("flaky", 8, 8))
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("create with a failing status fsync = %d (Retry-After %q, body %v), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if _, err := os.Stat(filepath.Join(dir, "default", "flaky")); !os.IsNotExist(err) {
		t.Errorf("failed create left its study directory behind (stat err %v)", err)
	}
	doJSON(t, "GET", base+"/v1/studies/flaky", nil, http.StatusNotFound)

	failing.Store(false)
	doJSON(t, "POST", base+"/v1/studies", smallSpec("flaky", 8, 8), http.StatusCreated)
	waitFor(t, base, "flaky", "done", stateIs(store.StateDone))
}

// TestCreateIDOnDiskConflicts: an id whose study is on disk but was
// skipped at start-up (its spec no longer resolves) is a 409, as an id
// in memory is; an invalid id stays a 400.
func TestCreateIDOnDiskConflicts(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create(store.Spec{Tenant: "default", ID: "stale", Workloads: []string{"no-such-net"}, Trials: 8}); err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, dir, nil)
	defer ts.stop()
	doJSON(t, "POST", ts.http.URL+"/v1/studies", smallSpec("stale", 8, 8), http.StatusConflict)
	doJSON(t, "POST", ts.http.URL+"/v1/studies", smallSpec("a.b", 8, 8), http.StatusBadRequest)
}

// TestCreateRefusesServerKeys: the server stamps format_version and
// created, so a body that sets either is a 400 naming the key.
func TestCreateRefusesServerKeys(t *testing.T) {
	ts := newTestServer(t, t.TempDir(), nil)
	defer ts.stop()
	for key, v := range map[string]any{"format_version": 1, "created": "2026-01-01T00:00:00Z"} {
		body := smallSpec("owned", 8, 8)
		body[key] = v
		refused := doJSON(t, "POST", ts.http.URL+"/v1/studies", body, http.StatusBadRequest)
		if msg, _ := refused["error"].(string); !strings.Contains(msg, key) {
			t.Errorf("error %q does not name %s", msg, key)
		}
	}
	doJSON(t, "GET", ts.http.URL+"/v1/studies/owned", nil, http.StatusNotFound)
}
