package chaoshttp

// The whole-system chaos differential. One clean daemon produces the
// reference transcript; then every seeded fault plan gets a fresh
// daemon with injected store/transport faults, an over-quota
// submission burst, SSE clients that vanish mid-stream, and a driver
// that resumes the study through every induced failure. The daemon
// must stay live, shed with Retry-After, finish the in-quota study,
// and end with a transcript byte-identical to the reference.

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

	"fast/internal/dispatch"
	"fast/internal/dispatch/chaos"
	"fast/internal/obsv"
	"fast/internal/serve"
	"fast/internal/store"
)

// mainSpec is the study every plan runs: long enough to span several
// checkpoint batches, with a wall-clock deadline riding the run
// context (never expected to fire; proves propagation is harmless).
func mainSpec() map[string]any {
	return map[string]any{
		"id": "chaos", "workloads": []string{"mobilenetv2"},
		"algorithm": "lcs", "trials": 48, "seed": 21, "batch_size": 8,
		"deadline_sec": 60.0,
	}
}

func burstSpec(i int) map[string]any {
	return map[string]any{
		"id": fmt.Sprintf("burst-%02d", i), "workloads": []string{"mobilenetv2"},
		"algorithm": "random", "trials": 8, "seed": int64(i), "batch_size": 8,
	}
}

// soakPlans is the seeded matrix the soak test and CI run: each plan
// faults one seam of the store or the worker pool, the last faults all
// of them at once.
var soakPlans = []chaos.Plan{
	{Name: "slow-disk", Seed: 101, FsDelayProb: 0.3, FsDelay: 2 * time.Millisecond},
	{Name: "fsync-errors", Seed: 202, FsyncErrProb: 0.3},
	{Name: "worker-chaos", Seed: 303, KillSendProb: 0.05, DropReplyProb: 0.05, ConnectRefusals: 1},
	{Name: "everything", Seed: 505, FsDelayProb: 0.2, FsDelay: time.Millisecond,
		FsyncErrProb: 0.15, KillSendProb: 0.03, DropReplyProb: 0.03, ConnectRefusals: 1},
}

// faultsTransport reports whether p injects any worker-connection fault.
func faultsTransport(p chaos.Plan) bool {
	return p.DelayProb > 0 || p.DropReplyProb > 0 || p.DupReplyProb > 0 ||
		p.CorruptProb > 0 || p.KillSendProb > 0 || p.ConnectRefusals > 0
}

type daemon struct {
	srv  *serve.Server
	http *httptest.Server
	pool *dispatch.Pool // nil for the in-process reference
	dir  string
}

func (d *daemon) stop() {
	d.http.Close()
	d.srv.Close()
	if d.pool != nil {
		d.pool.Close()
	}
}

// newDaemon builds a daemon over dir with the plan's faults armed: the
// plan's StoreHook on the store and, only when it faults the transport,
// its Wrap on a two-worker loopback pool — store-only plans run the
// in-process evaluation a daemon without workers uses. A nil plan
// yields the clean, in-process reference configuration.
func newDaemon(t *testing.T, dir string, plan *chaos.Plan) *daemon {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := serve.Config{
		Store:               st,
		Metrics:             obsv.NewRegistry(),
		Parallelism:         2,
		MaxStudiesPerTenant: 6,
		MaxActivePerTenant:  1,
		MaxQueuedPerTenant:  4,
	}
	d := &daemon{dir: dir}
	if plan != nil {
		st.SetFaultHook(plan.StoreHook())
	}
	if plan != nil && faultsTransport(*plan) {
		pool, err := dispatch.New(dispatch.Options{
			Workers:       2,
			Dialer:        dispatch.LoopbackDialer(),
			WrapDialer:    plan.Wrap,
			ChunkTimeout:  2 * time.Second,
			RespawnBudget: 200,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.pool = pool
		cfg.Dispatch = pool.Dispatch()
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.srv = srv
	d.http = httptest.NewServer(srv.Handler())
	return d
}

func post(t *testing.T, url string, body any) (*http.Response, map[string]any) {
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
	resp, err := http.Post(url, "application/json", rd)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out) //nolint:errcheck // some replies have empty bodies
	return resp, out
}

func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d, want 200", url, resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func checkHealthy(t *testing.T, base string) {
	t.Helper()
	if ok, _ := getJSON(t, base+"/healthz")["ok"].(bool); !ok {
		t.Fatal("daemon /healthz not ok")
	}
}

// waitTerminal polls study id until it leaves queued/running.
func waitTerminal(t *testing.T, base, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		sum := getJSON(t, base+"/v1/studies/"+id)
		switch sum["state"] {
		case store.StateDone, store.StateFailed, store.StateCanceled, store.StateInterrupted:
			return sum
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for a terminal state on %s", id)
	return nil
}

// resumeUntilDone drives the study through every induced failure:
// each failed attempt must leave a durable prefix and resume cleanly.
// Resume contention (409/429 while burst studies drain) is retried —
// that is the governance layer working, not an error.
func resumeUntilDone(t *testing.T, base, id string) map[string]any {
	t.Helper()
	for attempt := 0; attempt < 60; attempt++ {
		sum := waitTerminal(t, base, id)
		switch sum["state"] {
		case store.StateDone:
			return sum
		case store.StateCanceled:
			t.Fatalf("study %s canceled; nothing cancels it", id)
		}
		if msg, _ := sum["error"].(string); msg != "" {
			t.Logf("attempt %d: study %s failed (%s): %s", attempt, id, sum["error_class"], msg)
		}
		deadline := time.Now().Add(60 * time.Second)
		for {
			resp, body := post(t, base+"/v1/studies/"+id+"/resume", nil)
			if resp.StatusCode == http.StatusAccepted {
				break
			}
			switch resp.StatusCode {
			case http.StatusConflict, http.StatusTooManyRequests:
				if time.Now().After(deadline) {
					t.Fatalf("resume %s starved: last %d %v", id, resp.StatusCode, body)
				}
				time.Sleep(20 * time.Millisecond)
			default:
				t.Fatalf("resume %s = %d %v", id, resp.StatusCode, body)
			}
		}
	}
	t.Fatalf("study %s did not finish within the resume budget", id)
	return nil
}

// disconnectSSE opens the study's event stream, reads the opening
// frame, and slams the connection shut — the daemon must not notice
// beyond reaping the handler.
func disconnectSSE(t *testing.T, base, id string) {
	t.Helper()
	resp, err := http.Get(base + "/v1/studies/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	rd := bufio.NewReader(resp.Body)
	if line, err := rd.ReadString('\n'); err != nil || !strings.HasPrefix(line, "event:") {
		t.Fatalf("SSE opening frame = %q (err %v)", line, err)
	}
	resp.Body.Close()
}

func transcriptBytes(t *testing.T, dir string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "default", "chaos", "transcript.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// reference runs the study once on a clean daemon and caches its
// transcript; every plan compares against these bytes.
var (
	refOnce  sync.Once
	refLines string
)

func reference(t *testing.T) string {
	refOnce.Do(func() {
		dir, err := os.MkdirTemp("", "chaoshttp-ref-*")
		if err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(dir)
		d := newDaemon(t, dir, nil)
		defer d.stop()
		if resp, body := post(t, d.http.URL+"/v1/studies", mainSpec()); resp.StatusCode != http.StatusCreated {
			t.Fatalf("reference create = %d %v", resp.StatusCode, body)
		}
		sum := waitTerminal(t, d.http.URL, "chaos")
		if sum["state"] != store.StateDone {
			t.Fatalf("reference run ended %v: %v", sum["state"], sum["error"])
		}
		refLines = transcriptBytes(t, dir)
	})
	if refLines == "" {
		t.Fatal("reference transcript unavailable (earlier failure)")
	}
	return refLines
}

// TestChaosWholeSystem is the tentpole differential: liveness,
// governance, and bit-identical resume under every seeded fault plan.
func TestChaosWholeSystem(t *testing.T) {
	want := reference(t)
	for i := range soakPlans {
		plan := &soakPlans[i]
		t.Run(plan.Name, func(t *testing.T) {
			dir := t.TempDir()
			d := newDaemon(t, dir, plan)
			defer d.stop()
			base := d.http.URL

			if resp, body := post(t, base+"/v1/studies", mainSpec()); resp.StatusCode != http.StatusCreated {
				t.Fatalf("create = %d %v", resp.StatusCode, body)
			}
			checkHealthy(t, base)

			// Submission burst past quota: with six stored studies per
			// tenant (one already taken by the main study), an 8-study
			// burst must shed at least three times regardless of how fast
			// the faulted daemon drains its queue — and every shed must
			// carry Retry-After.
			var accepted []string
			shed := 0
			for i := 0; i < 8; i++ {
				resp, body := post(t, base+"/v1/studies", burstSpec(i))
				switch resp.StatusCode {
				case http.StatusCreated:
					accepted = append(accepted, fmt.Sprintf("burst-%02d", i))
				case http.StatusTooManyRequests:
					shed++
					if resp.Header.Get("Retry-After") == "" {
						t.Errorf("shed %d response missing Retry-After", resp.StatusCode)
					}
				default:
					t.Fatalf("burst create = %d %v", resp.StatusCode, body)
				}
			}
			if shed == 0 {
				t.Error("8-study burst over a 4-deep queue shed nothing")
			}
			checkHealthy(t, base)

			// Clients vanish mid-stream, twice, while faults fly.
			disconnectSSE(t, base, "chaos")
			disconnectSSE(t, base, "chaos")
			checkHealthy(t, base)

			// The in-quota study must finish despite every induced
			// failure, resuming from each durable prefix.
			final := resumeUntilDone(t, base, "chaos")
			if done, _ := final["trials_done"].(float64); int(done) != 48 {
				t.Errorf("trials_done = %v, want 48", done)
			}

			// Accepted burst studies reach terminal states (failures from
			// injected faults are legitimate; hung studies are not).
			for _, id := range accepted {
				waitTerminal(t, base, id)
			}
			checkHealthy(t, base)

			// The durability differential: transcript bytes equal the
			// unfaulted run's.
			if got := transcriptBytes(t, dir); got != want {
				t.Errorf("plan %s: transcript differs from unfaulted reference\n--- want\n%s\n--- got\n%s",
					plan.Name, want, got)
			}
		})
	}
}
