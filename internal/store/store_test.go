package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fast/internal/arch"
	"fast/internal/fault"
	"fast/internal/search"
)

func testSpec(tenant, id string) Spec {
	return Spec{
		Tenant:    tenant,
		ID:        id,
		Workloads: []string{"efficientnet-b0"},
		Objective: "perf-per-tdp",
		Algorithm: "lcs",
		Trials:    24,
		Seed:      7,
		Created:   "2026-08-07T00:00:00Z",
	}
}

// trial fabricates a deterministic trial for transcript tests.
func trial(i int) search.Trial {
	var idx [arch.NumParams]int
	idx[0] = i
	idx[3] = 2 * i
	return search.Trial{
		Index: idx,
		Evaluation: search.Evaluation{
			Value:    float64(i) + 0.0625,
			Feasible: i%3 != 0,
		},
	}
}

func TestCreateGetRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sp := testSpec("acme", "run-001")
	s, err := st.Create(sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create(sp); !errors.Is(err, ErrExists) {
		t.Fatalf("second Create = %v, want ErrExists", err)
	}

	got, err := st.Get("acme", "run-001")
	if err != nil {
		t.Fatal(err)
	}
	gs := got.Spec()
	if gs.Tenant != "acme" || gs.ID != "run-001" || gs.Trials != 24 || gs.Seed != 7 ||
		gs.Objective != "perf-per-tdp" || gs.FormatVersion != FormatVersion {
		t.Errorf("round-tripped spec = %+v", gs)
	}
	if _, err := st.Get("acme", "nope"); !errors.Is(err, errNotFound) {
		t.Fatalf("Get missing = %v, want ErrNotFound", err)
	}

	status, err := s.Status()
	if err != nil {
		t.Fatal(err)
	}
	if status.State != StateQueued || status.TrialsTarget != 24 {
		t.Errorf("initial status = %+v, want queued with target 24", status)
	}
	status.State = StateFailed
	status.Error = "study deadline exceeded"
	status.ErrorClass = "retryable"
	status.Updated = "2026-08-07T00:01:00Z"
	if err := s.SetStatus(status); err != nil {
		t.Fatal(err)
	}
	re, err := got.Status()
	if err != nil {
		t.Fatal(err)
	}
	if re != status {
		t.Errorf("status round trip: %+v != %+v", re, status)
	}
}

// TestDirSyncFaultIsReported: a failed directory fsync after the rename
// fails the replacement, classified retryable: without it the renamed
// entry may not survive a crash.
func TestDirSyncFaultIsReported(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.Create(testSpec("acme", "dirsync"))
	if err != nil {
		t.Fatal(err)
	}
	st.SetFaultHook(func(op FaultOp, path string) error {
		if op == OpSync && path == s.Dir() {
			return errors.New("EIO")
		}
		return nil
	})
	err = s.SetStatus(Status{State: StateDone, TrialsTarget: 24})
	if err == nil || fault.ClassOf(err) != fault.ClassRetryable {
		t.Errorf("SetStatus with a failing directory fsync = %v, want a retryable error", err)
	}
}

// TestFailedCreateFreesID: a create whose status or directory fsync
// fails after the spec landed comes back retryable and leaves no
// directory behind, so the same id creates cleanly once the disk does.
func TestFailedCreateFreesID(t *testing.T) {
	for _, failing := range []string{statusFile, "dir"} {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		sp := testSpec("acme", "flaky")
		dir := filepath.Join(st.Root(), "acme", "flaky")
		st.SetFaultHook(func(op FaultOp, path string) error {
			if op == OpSync && (filepath.Base(path) == failing || failing == "dir" && path == dir) {
				return errors.New("EIO")
			}
			return nil
		})
		if _, err := st.Create(sp); err == nil || fault.ClassOf(err) != fault.ClassRetryable {
			t.Fatalf("%s fsync fault: Create = %v, want a retryable error", failing, err)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%s fsync fault: study directory left behind (stat err %v)", failing, err)
		}
		st.SetFaultHook(nil)
		if _, err := st.Create(sp); err != nil {
			t.Fatalf("%s fsync fault: retried Create = %v", failing, err)
		}
		if _, err := st.Get("acme", "flaky"); err != nil {
			t.Errorf("%s fsync fault: Get after the retry = %v", failing, err)
		}
	}
}

// TestStatusReadsEarlierFormat: a status.json written by a release that
// still recorded progress in it (trials_done, best_value,
// best_feasible) loads without error at the same format version; the
// progress fields are ignored.
func TestStatusReadsEarlierFormat(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.Create(testSpec("acme", "old"))
	if err != nil {
		t.Fatal(err)
	}
	old := `{"state":"failed","trials_done":16,"trials_target":24,"best_value":92.5,` +
		`"best_feasible":true,"error":"boom","updated":"2026-08-07T00:01:00Z"}`
	if err := os.WriteFile(filepath.Join(s.Dir(), statusFile), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := s.Status()
	if err != nil {
		t.Fatalf("earlier-format status: %v", err)
	}
	want := Status{State: StateFailed, TrialsTarget: 24, Error: "boom", Updated: "2026-08-07T00:01:00Z"}
	if got != want {
		t.Errorf("earlier-format status = %+v, want %+v", got, want)
	}
	if FormatVersion != 1 {
		t.Errorf("FormatVersion = %d, want 1: dropping status fields is not a format change", FormatVersion)
	}
}

func TestNamesAreSanitized(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "..", "../escape", "a/b", "a.b", "x y", strings.Repeat("a", 65)} {
		if _, err := st.Create(testSpec(bad, "ok")); err == nil {
			t.Errorf("tenant %q accepted", bad)
		}
		if _, err := st.Create(testSpec("ok", bad)); err == nil {
			t.Errorf("id %q accepted", bad)
		}
		if _, err := st.Get(bad, "ok"); err == nil || errors.Is(err, errNotFound) {
			t.Errorf("Get with tenant %q must fail validation, got %v", bad, err)
		}
	}
}

func TestTranscriptRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.Create(testSpec("acme", "tr"))
	if err != nil {
		t.Fatal(err)
	}

	want := search.Snapshot{Algorithm: search.AlgLCS, Seed: 7, Budget: 24}
	if err := s.BeginTranscript(search.AlgLCS, 7, 24); err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]search.Trial{
		{trial(1), trial(2), trial(3)},
		{trial(4), trial(5)},
	} {
		want.Append(batch)
		if _, err := s.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CloseTranscript(); err != nil {
		t.Fatal(err)
	}

	// A fresh handle (fresh process) sees the identical snapshot.
	re, err := st.Get("acme", "tr")
	if err != nil {
		t.Fatal(err)
	}
	snap, truncated, err := re.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Error("clean transcript reported truncated")
	}
	if snap.Algorithm != want.Algorithm || snap.Seed != want.Seed || snap.Budget != want.Budget {
		t.Fatalf("snapshot header = %s/%d/%d", snap.Algorithm, snap.Seed, snap.Budget)
	}
	if len(snap.AskSizes) != 2 || snap.AskSizes[0] != 3 || snap.AskSizes[1] != 2 {
		t.Fatalf("ask sizes = %v", snap.AskSizes)
	}
	for i := range want.Trials {
		if !snap.Trials[i].Equal(want.Trials[i]) {
			t.Fatalf("trial %d differs after round trip", i)
		}
	}

	// Resume appends: reopen with matching header and extend.
	if err := re.BeginTranscript(search.AlgLCS, 7, 24); err != nil {
		t.Fatal(err)
	}
	if _, err := re.AppendBatch([]search.Trial{trial(6)}); err != nil {
		t.Fatal(err)
	}
	re.CloseTranscript()
	snap2, _, err := re.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap2.Trials) != 6 || len(snap2.AskSizes) != 3 {
		t.Fatalf("extended transcript has %d trials in %d batches", len(snap2.Trials), len(snap2.AskSizes))
	}

	// A mismatched header (different study parameters) must refuse.
	if err := re.BeginTranscript(search.AlgLCS, 8, 24); err == nil {
		t.Error("BeginTranscript with mismatched seed must fail")
	}
}

func TestEmptyTranscript(t *testing.T) {
	st, _ := Open(t.TempDir())
	s, err := st.Create(testSpec("acme", "fresh"))
	if err != nil {
		t.Fatal(err)
	}
	snap, truncated, err := s.Snapshot()
	if err != nil || truncated {
		t.Fatalf("fresh study Snapshot = %v, truncated %v", err, truncated)
	}
	if len(snap.Trials) != 0 {
		t.Errorf("fresh study has %d trials", len(snap.Trials))
	}
}

func TestTornTailIsDropped(t *testing.T) {
	st, _ := Open(t.TempDir())
	s, err := st.Create(testSpec("acme", "torn"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BeginTranscript(search.AlgRandom, 7, 24); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendBatch([]search.Trial{trial(1), trial(2)}); err != nil {
		t.Fatal(err)
	}
	s.CloseTranscript()

	path := filepath.Join(s.Dir(), "transcript.jsonl")
	for _, tail := range []string{
		`{"trials":[{"index":[3`,       // torn mid-JSON
		`{"trials":[{"index":[3,0,0,0`, // torn elsewhere
		`{"trials":[]}`,                // complete-looking but no newline
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		snap, truncated, err := s.Snapshot()
		if err != nil {
			t.Fatalf("tail %q: %v", tail, err)
		}
		if !truncated {
			t.Errorf("tail %q: not reported truncated", tail)
		}
		if len(snap.Trials) != 2 {
			t.Errorf("tail %q: snapshot has %d trials, want the 2 durable ones", tail, len(snap.Trials))
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTornTailIsCutBeforeAppend: resuming a transcript whose final line
// a crash tore must cut the torn bytes off the file, not only out of
// the snapshot, so the next append leaves exactly the bytes of an
// uninterrupted run. A fault on the cut fails the resume retryably and
// leaves the file for the next attempt.
func TestTornTailIsCutBeforeAppend(t *testing.T) {
	st, _ := Open(t.TempDir())
	first, second := []search.Trial{trial(1), trial(2)}, []search.Trial{trial(3)}
	write := func(id string, batches ...[]search.Trial) string {
		t.Helper()
		s, err := st.Create(testSpec("acme", id))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.BeginTranscript(search.AlgRandom, 7, 24); err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			if _, err := s.AppendBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.CloseTranscript(); err != nil {
			t.Fatal(err)
		}
		return filepath.Join(s.Dir(), transcriptFile)
	}
	want, err := os.ReadFile(write("whole", first, second))
	if err != nil {
		t.Fatal(err)
	}

	path := write("torn", first)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"trials":[{"ind`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	tornBytes, _ := os.ReadFile(path)

	// A fresh handle resumes, as after a restart.
	re, err := st.Get("acme", "torn")
	if err != nil {
		t.Fatal(err)
	}
	st.SetFaultHook(func(FaultOp, string) error { return errors.New("disk full") })
	if err := re.BeginTranscript(search.AlgRandom, 7, 24); fault.ClassOf(err) != fault.ClassRetryable {
		t.Errorf("BeginTranscript under a write fault = %v, want a retryable error", err)
	}
	st.SetFaultHook(nil)
	if got, _ := os.ReadFile(path); string(got) != string(tornBytes) {
		t.Errorf("failed cut changed the transcript to %q", got)
	}

	if err := re.BeginTranscript(search.AlgRandom, 7, 24); err != nil {
		t.Fatal(err)
	}
	if _, err := re.AppendBatch(second); err != nil {
		t.Fatal(err)
	}
	if err := re.CloseTranscript(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("resumed transcript:\n%s\nwant the untorn bytes:\n%s", got, want)
	}
}

func TestMidFileCorruptionIsFatal(t *testing.T) {
	st, _ := Open(t.TempDir())
	s, err := st.Create(testSpec("acme", "corrupt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BeginTranscript(search.AlgRandom, 7, 24); err != nil {
		t.Fatal(err)
	}
	s.AppendBatch([]search.Trial{trial(1)})
	s.AppendBatch([]search.Trial{trial(2)})
	s.CloseTranscript()

	path := filepath.Join(s.Dir(), "transcript.jsonl")
	data, _ := os.ReadFile(path)
	mangled := strings.Replace(string(data), `"trials"`, `"trails"`, 1) // first batch line
	if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Snapshot(); !errors.Is(err, errCorrupt) {
		t.Fatalf("mid-file corruption: %v, want ErrCorrupt", err)
	}
}

func TestVersionMismatch(t *testing.T) {
	st, _ := Open(t.TempDir())
	s, err := st.Create(testSpec("acme", "ver"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BeginTranscript(search.AlgRandom, 7, 24); err != nil {
		t.Fatal(err)
	}
	s.AppendBatch([]search.Trial{trial(1)})
	s.CloseTranscript()

	// Future transcript version.
	tpath := filepath.Join(s.Dir(), "transcript.jsonl")
	data, _ := os.ReadFile(tpath)
	future := strings.Replace(string(data), `"version":1`, `"version":99`, 1)
	os.WriteFile(tpath, []byte(future), 0o644)
	if _, _, err := s.Snapshot(); !errors.Is(err, errVersionMismatch) {
		t.Fatalf("future transcript: %v, want ErrVersionMismatch", err)
	}

	// Future spec version.
	spath := filepath.Join(s.Dir(), "spec.json")
	sdata, _ := os.ReadFile(spath)
	sfuture := strings.Replace(string(sdata), `"format_version":1`, `"format_version":99`, 1)
	os.WriteFile(spath, []byte(sfuture), 0o644)
	if _, err := st.Get("acme", "ver"); !errors.Is(err, errVersionMismatch) {
		t.Fatalf("future spec: %v, want ErrVersionMismatch", err)
	}
}

func TestListSortedAndResilient(t *testing.T) {
	st, _ := Open(t.TempDir())
	for _, pair := range [][2]string{{"zeta", "a"}, {"acme", "b"}, {"acme", "a"}} {
		if _, err := st.Create(testSpec(pair[0], pair[1])); err != nil {
			t.Fatal(err)
		}
	}
	// One broken study must not hide the others.
	bad := filepath.Join(st.Root(), "acme", "broken")
	os.MkdirAll(bad, 0o755)
	os.WriteFile(filepath.Join(bad, "spec.json"), []byte("not json"), 0o644)

	studies, skipped, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if skipped == nil {
		t.Error("List with a corrupt study must report it")
	}
	var got []string
	for _, s := range studies {
		got = append(got, s.Spec().Tenant+"/"+s.Spec().ID)
	}
	want := []string{"acme/a", "acme/b", "zeta/a"}
	if len(got) != len(want) {
		t.Fatalf("List = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v, want %v", got, want)
		}
	}
}

// TestSnapshotRestores closes the loop with the search layer: a stored
// transcript of a real optimizer restores into a working optimizer.
func TestSnapshotRestores(t *testing.T) {
	st, _ := Open(t.TempDir())
	s, err := st.Create(testSpec("acme", "restore"))
	if err != nil {
		t.Fatal(err)
	}
	opt := search.New(search.AlgLCS, 7, 24)
	if err := s.BeginTranscript(search.AlgLCS, 7, 24); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 3; b++ {
		asked := opt.Ask(8)
		batch := make([]search.Trial, len(asked))
		for i, idx := range asked {
			batch[i] = search.Trial{Index: idx, Evaluation: search.Evaluation{Value: float64(i), Feasible: true}}
		}
		opt.Tell(batch)
		if _, err := s.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	s.CloseTranscript()

	snap, _, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := search.Restore(snap)
	if err != nil {
		t.Fatalf("stored transcript does not restore: %v", err)
	}
	if len(snap.Trials) != 24 {
		t.Fatalf("stored transcript holds %d trials, want 24", len(snap.Trials))
	}
	next, orig := restored.Ask(8), opt.Ask(8)
	for i := range next {
		if next[i] != orig[i] {
			t.Fatalf("restored optimizer diverges at proposal %d", i)
		}
	}
}
