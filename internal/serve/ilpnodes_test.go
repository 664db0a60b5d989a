package serve

// The exact fusion solve is bounded by a node count, ilp_nodes, which
// replaced the wall-clock ilp_deadline_sec. A client that still sends
// the old key is told so; a study stored with it still loads.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fast/internal/store"
)

// TestCreateRejectsILPDeadline: a body carrying ilp_deadline_sec is a
// 400 that names ilp_nodes, while every other documented key, and the
// body fast-bench posts, is still accepted.
func TestCreateRejectsILPDeadline(t *testing.T) {
	ts := newTestServer(t, t.TempDir(), nil)
	defer ts.stop()
	base := ts.http.URL

	old := map[string]any{"id": "old", "workloads": []string{"mobilenetv2"}, "trials": 8, "ilp_deadline_sec": 2}
	refused := doJSON(t, "POST", base+"/v1/studies", old, http.StatusBadRequest)
	if msg, _ := refused["error"].(string); !strings.Contains(msg, "ilp_nodes") {
		t.Errorf("error %q does not name ilp_nodes", msg)
	}

	for _, body := range []map[string]any{
		// Every key of docs/API.md's create table.
		{
			"id": "scalar", "tenant": "t1", "workloads": []string{"mobilenetv2"}, "trials": 8,
			"objective": "perf", "algorithm": "random", "seed": 3, "batch_size": 4,
			"latency_bound_sec": 1.0, "deadline_sec": 600.0, "ilp_nodes": 4096,
		},
		{
			"id": "front", "workloads": []string{"mobilenetv2"}, "trials": 8,
			"objectives": []string{"perf", "area"}, "front_cap": 4,
		},
		// fast-bench's serve_fsync body.
		{"id": "bench", "workloads": []string{"mobilenetv2"}, "trials": 8, "seed": 1, "batch_size": 8},
	} {
		doJSON(t, "POST", base+"/v1/studies", body, http.StatusCreated)
	}
	waitFor(t, base, "bench", "done", stateIs(store.StateDone))

	cs, err := coreStudy(store.Spec{Workloads: []string{"mobilenetv2"}, Trials: 8, ILPNodes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if cs.SimOptions == nil || cs.SimOptions.Fusion.MaxNodes != 4096 {
		t.Errorf("ilp_nodes 4096 reached the study as %+v", cs.SimOptions)
	}
}

// TestStoredILPDeadlineSpecResumes: a spec.json written with
// ilp_deadline_sec still loads after a restart, says in the log that
// the field is no longer read, and resumes to the end under the default
// node budget.
func TestStoredILPDeadlineSpecResumes(t *testing.T) {
	dir := t.TempDir()
	sto, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := sto.Create(store.Spec{
		Tenant: "default", ID: "legacy", Workloads: []string{"mobilenetv2"},
		Algorithm: "lcs", Trials: 16, Seed: 5, BatchSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(sd.Dir(), "spec.json")
	data, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	raw["ilp_deadline_sec"] = 2.5
	if data, err = json.Marshal(raw); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var logs strings.Builder
	ts := newTestServer(t, dir, func(c *Config) {
		c.Logf = func(format string, args ...any) {
			mu.Lock()
			fmt.Fprintf(&logs, format+"\n", args...)
			mu.Unlock()
		}
	})
	defer ts.stop()
	mu.Lock()
	logged := logs.String()
	mu.Unlock()
	if !strings.Contains(logged, "ilp_deadline_sec is no longer read") || !strings.Contains(logged, "id=legacy ilp_deadline_sec=2.5") {
		t.Errorf("no log line for the dropped ilp_deadline_sec:\n%s", logged)
	}
	if st := ts.srv.studies["default/legacy"]; st == nil || st.spec.ILPNodes != 0 {
		t.Fatalf("study loaded as %+v, want the default node budget", st)
	}

	base := ts.http.URL
	doJSON(t, "POST", base+"/v1/studies/legacy/resume", nil, http.StatusAccepted)
	waitFor(t, base, "legacy", "done", stateIs(store.StateDone))
	res := doJSON(t, "GET", base+"/v1/studies/legacy/result", nil, http.StatusOK)
	if res["best"] == nil {
		t.Errorf("resumed study reports no best design: %v", res)
	}
}
