// Package store is the durability layer of the FAST serving stack: a
// crash-safe, append-only on-disk record of every study a daemon runs,
// from which an interrupted study resumes bit-identically in a fresh
// process.
//
// A study's search state is exactly its ask/tell transcript (see
// internal/search/snapshot.go), so the store persists three files per
// study under <root>/<tenant>/<id>/:
//
//	spec.json        the immutable study definition, written once at
//	                 creation (atomic tmp+rename)
//	transcript.jsonl one header line (format/version/algorithm/seed/
//	                 budget) then one JSON line per told batch,
//	                 fsync'd per append — the checkpoint itself and
//	                 the one durable record of progress
//	status.json      the lifecycle record (state, trial target, error),
//	                 atomically replaced at create, launch and finish
//
// Crash safety follows from the line discipline: an append either lands
// whole (the fsync returned) or is a torn final line, which Snapshot
// detects and drops, reporting the study as truncated at the last
// durable batch — exactly the batches the optimizer can replay — and
// BeginTranscript cuts off the file before a resumed run appends.
// Corruption anywhere before the final line is not survivable silently
// and is reported as ErrCorrupt; a format version beyond this package's
// writer is ErrVersionMismatch (operators roll the binary forward, not
// the data back). docs/OPERATIONS.md walks through both recoveries.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"fast/internal/fault"
	"fast/internal/search"
)

// FormatVersion is the on-disk format written by this package. Readers
// accept exactly this version: the format is an internal contract, not
// a migration surface, so a mismatch means the binary and data are from
// different releases.
const FormatVersion = 1

// Sentinel errors. Callers branch on these with errors.Is; every error
// carries the study path for the operator.
var (
	// ErrExists: Create found the study already on disk.
	ErrExists          = errors.New("study already exists")
	errNotFound        = errors.New("study not found")
	errCorrupt         = errors.New("checkpoint corrupt")
	errVersionMismatch = errors.New("checkpoint format version mismatch")
)

// Spec is the immutable definition of a stored study — everything
// needed to reconstruct the core.Study in a fresh process. It is
// written once at creation and never rewritten; the lifecycle lives in
// Status and progress in the transcript.
type Spec struct {
	FormatVersion int    `json:"format_version"`
	Tenant        string `json:"tenant"`
	ID            string `json:"id"`

	Workloads []string `json:"workloads"`
	// Objective names core.ObjectiveKind by name for scalar studies;
	// Objectives replaces it for multi-objective (Pareto) studies.
	Objective       string   `json:"objective,omitempty"`
	Objectives      []string `json:"objectives,omitempty"`
	Algorithm       string   `json:"algorithm,omitempty"`
	Trials          int      `json:"trials"`
	Seed            int64    `json:"seed"`
	BatchSize       int      `json:"batch_size,omitempty"`
	FrontCap        int      `json:"front_cap,omitempty"`
	LatencyBoundSec float64  `json:"latency_bound_sec,omitempty"`
	// DeadlineSec bounds one run's wall-clock time: the serving layer
	// derives the run context's deadline from it, so a study whose
	// client stopped caring cannot burn workers forever. Purely a
	// scheduling bound — it never reaches evaluation semantics, so a
	// deadlined study resumes bit-identically.
	DeadlineSec float64 `json:"deadline_sec,omitempty"`
	// ILPNodes overrides the node budget of the final report's exact-ILP
	// fusion solves (the CLIs' -ilp-nodes). Part of the spec, so every
	// run of the study solves under the same bound.
	ILPNodes int `json:"ilp_nodes,omitempty"`

	// Created is an RFC 3339 timestamp stamped by the caller (the store
	// itself never reads the clock).
	Created string `json:"created,omitempty"`
}

// Study lifecycle states recorded in Status.State. The store does not
// enforce the state machine — internal/serve owns transitions — but
// the names are part of the on-disk contract.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateCanceled    = "canceled"
	StateInterrupted = "interrupted" // found queued or running after a restart
)

// Status is the lifecycle record of a study, atomically replaced on
// every update. Progress is not in it: the transcript is the one
// durable record of trials done and the best value. Records of earlier
// releases, progress fields and all, still load (the fields are ignored).
type Status struct {
	State string `json:"state"`
	// TrialsTarget is the current trial budget (it can exceed
	// Spec.Trials after a resume that extends the study).
	TrialsTarget int `json:"trials_target"`
	// Error records why State became failed, and ErrorClass its fault
	// class ("retryable", "terminal" or "unknown").
	Error      string `json:"error,omitempty"`
	ErrorClass string `json:"error_class,omitempty"`
	// Updated is an RFC 3339 timestamp stamped by the caller.
	Updated string `json:"updated,omitempty"`
}

const (
	specFile       = "spec.json"
	statusFile     = "status.json"
	transcriptFile = "transcript.jsonl"
)

// FaultOp names one durability-critical filesystem operation the fault
// seam can observe.
type FaultOp string

// The operations the seam intercepts, in the order a durable write
// performs them.
const (
	OpWrite  FaultOp = "write"
	OpSync   FaultOp = "sync"
	OpClose  FaultOp = "close"
	OpRename FaultOp = "rename"
)

// FaultHook intercepts durability-critical filesystem operations before
// they execute. Returning a non-nil error aborts the operation with
// that error (it surfaces through the caller classified retryable);
// sleeping inside the hook injects latency without failing. The hook
// runs on whatever goroutine performs the write, so a slow hook is a
// slow disk, exactly as the chaos harness wants.
type FaultHook func(op FaultOp, path string) error

// Store is a root directory holding studies as <root>/<tenant>/<id>/.
type Store struct {
	root string
	hook FaultHook
}

// SetFaultHook installs h as the store's filesystem fault seam (nil
// removes it). Test/chaos instrumentation only: call before handing the
// store to concurrent users.
func (st *Store) SetFaultHook(h FaultHook) { st.hook = h }

// fsOp runs the fault hook, if any, for op on path.
func (st *Store) fsOp(op FaultOp, path string) error {
	if st == nil || st.hook == nil {
		return nil
	}
	if err := st.hook(op, path); err != nil {
		return fmt.Errorf("store: injected %s fault on %s: %w", op, filepath.Base(path), err)
	}
	return nil
}

// do performs one durability-critical operation on path: the fault
// hook first, then f unless the hook injected a fault.
func (st *Store) do(op FaultOp, path string, f func() error) error {
	if err := st.fsOp(op, path); err != nil {
		return err
	}
	return f()
}

// Open creates the root directory if needed and returns the store.
func Open(root string) (*Store, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", root, err)
	}
	return &Store{root: root}, nil
}

// Root returns the store's root directory.
func (st *Store) Root() string { return st.root }

// validName reports whether s is safe as a path component. The
// whitelist is deliberate: tenant and study IDs come from HTTP clients
// and become directory names, so anything outside [A-Za-z0-9_-] (dots,
// separators, empty) is rejected rather than escaped.
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

func (st *Store) dir(tenant, id string) (string, error) {
	if !validName(tenant) {
		return "", fmt.Errorf("store: invalid tenant %q (want [A-Za-z0-9_-]{1,64})", tenant)
	}
	if !validName(id) {
		return "", fmt.Errorf("store: invalid study id %q (want [A-Za-z0-9_-]{1,64})", id)
	}
	return filepath.Join(st.root, tenant, id), nil
}

// Create allocates the study directory and durably writes its spec and
// an initial queued status. ErrExists if the (tenant, id) pair is
// taken. A create that fails after writing removes what it wrote, so
// the id is free for a retry; disk faults come back classified
// retryable.
func (st *Store) Create(sp Spec) (s *Study, err error) {
	dir, err := st.dir(sp.Tenant, sp.ID)
	if err != nil {
		return nil, err
	}
	sp.FormatVersion = FormatVersion
	if _, err := os.Stat(filepath.Join(dir, specFile)); err == nil {
		return nil, fmt.Errorf("store: %s/%s: %w", sp.Tenant, sp.ID, ErrExists)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fault.Retryable("store.create", fmt.Errorf("store: create %s: %w", dir, err))
	}
	defer func() {
		if err != nil {
			// Best effort (err already reports the failure): a spec
			// left here would make the id read as taken.
			os.Remove(filepath.Join(dir, statusFile))
			os.Remove(filepath.Join(dir, specFile))
			os.Remove(dir)
		}
	}()
	s = &Study{store: st, spec: sp, dir: dir}
	if err := st.writeFileAtomic(filepath.Join(dir, specFile), mustJSON(sp)); err != nil {
		return nil, err
	}
	if err := s.SetStatus(Status{State: StateQueued, TrialsTarget: sp.Trials}); err != nil {
		return nil, err
	}
	return s, nil
}

// Get opens an existing study. ErrNotFound if it does not exist,
// errVersionMismatch if its spec was written by a newer format.
func (st *Store) Get(tenant, id string) (*Study, error) {
	dir, err := st.dir(tenant, id)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(dir, specFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("store: %s/%s: %w", tenant, id, errNotFound)
	}
	if err != nil {
		return nil, fmt.Errorf("store: read spec %s/%s: %w", tenant, id, err)
	}
	var sp struct {
		Spec
		ILPDeadlineSec float64 `json:"ilp_deadline_sec"` // from before ILPNodes
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("store: spec %s/%s: %w: %v", tenant, id, errCorrupt, err)
	}
	if sp.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("store: spec %s/%s has format version %d, this binary writes %d: %w",
			tenant, id, sp.FormatVersion, FormatVersion, errVersionMismatch)
	}
	return &Study{store: st, spec: sp.Spec, dir: dir, droppedILPDeadlineSec: sp.ILPDeadlineSec}, nil
}

// List opens every study in the store, sorted by (tenant, id). It fails
// (err) only when the root itself cannot be read. Studies that fail to
// open (corrupt or version-mismatched specs, unreadable tenant
// directories) are left out and reported in skipped, so one bad
// directory cannot take restart recovery down.
func (st *Store) List() (studies []*Study, skipped, err error) {
	tenants, err := os.ReadDir(st.root)
	if err != nil {
		return nil, nil, fmt.Errorf("store: list %s: %w", st.root, err)
	}
	var out []*Study
	var errs []error
	for _, td := range tenants {
		if !td.IsDir() || !validName(td.Name()) {
			continue
		}
		ids, err := os.ReadDir(filepath.Join(st.root, td.Name()))
		if err != nil {
			errs = append(errs, err)
			continue
		}
		for _, id := range ids {
			if !id.IsDir() || !validName(id.Name()) {
				continue
			}
			s, err := st.Get(td.Name(), id.Name())
			if err != nil {
				errs = append(errs, err)
				continue
			}
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].spec.Tenant != out[j].spec.Tenant {
			return out[i].spec.Tenant < out[j].spec.Tenant
		}
		return out[i].spec.ID < out[j].spec.ID
	})
	return out, errors.Join(errs...), nil
}

// mustJSON marshals v, panicking on failure — the store's types are
// all marshalable by construction.
func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("store: marshal %T: %v", v, err))
	}
	return data
}

// writeFileAtomic durably replaces path with data: write a temp file in
// the same directory, fsync it, rename over the target, fsync the
// directory. Readers see the old or the new content, never a torn mix.
// Failures are classified retryable — the data is intact on disk, only
// this replacement did not land.
func (st *Store) writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fault.Retryable("store.write", fmt.Errorf("store: %w", err))
	}
	defer os.Remove(tmp.Name())
	if err := st.do(OpWrite, path, func() error { _, err := tmp.Write(data); return err }); err != nil {
		tmp.Close()
		return fault.Retryable("store.write", fmt.Errorf("store: write %s: %w", path, err))
	}
	if err := st.do(OpSync, path, tmp.Sync); err != nil {
		tmp.Close()
		return fault.Retryable("store.sync", fmt.Errorf("store: sync %s: %w", path, err))
	}
	if err := st.do(OpClose, path, tmp.Close); err != nil {
		return fault.Retryable("store.close", fmt.Errorf("store: close %s: %w", path, err))
	}
	if err := st.do(OpRename, path, func() error { return os.Rename(tmp.Name(), path) }); err != nil {
		return fault.Retryable("store.rename", fmt.Errorf("store: rename %s: %w", path, err))
	}
	return st.syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed or just-created entry
// survives a crash.
func (st *Store) syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fault.Retryable("store.sync", fmt.Errorf("store: %w", err))
	}
	defer d.Close()
	if err := st.do(OpSync, dir, d.Sync); err != nil {
		return fault.Retryable("store.sync", fmt.Errorf("store: sync dir %s: %w", dir, err))
	}
	return nil
}

// Study is an open handle on one stored study. The handle itself is
// not goroutine-safe: internal/serve drives each study from a single
// goroutine (its run loop), which matches the checkpoint hook's
// single-threaded delivery.
type Study struct {
	store *Store
	spec  Spec
	dir   string
	// droppedILPDeadlineSec: see DroppedILPDeadlineSec.
	droppedILPDeadlineSec float64

	transcript *os.File // lazily opened append handle
}

// Spec returns the study's immutable definition.
func (s *Study) Spec() Spec { return s.spec }

// DroppedILPDeadlineSec is the ilp_deadline_sec of a spec written
// before the exact fusion solve was bounded in nodes, zero if it has
// none. Nothing reads it: the study runs under the default node budget.
func (s *Study) DroppedILPDeadlineSec() float64 { return s.droppedILPDeadlineSec }

// Dir returns the study's directory.
func (s *Study) Dir() string { return s.dir }

// Status reads the current lifecycle record.
func (s *Study) Status() (Status, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, statusFile))
	if err != nil {
		return Status{}, fmt.Errorf("store: read status %s: %w", s.dir, err)
	}
	var out Status
	if err := json.Unmarshal(data, &out); err != nil {
		return Status{}, fmt.Errorf("store: status %s: %w: %v", s.dir, errCorrupt, err)
	}
	return out, nil
}

// SetStatus durably replaces the lifecycle record.
func (s *Study) SetStatus(v Status) error {
	return s.store.writeFileAtomic(filepath.Join(s.dir, statusFile), mustJSON(v))
}

// transcriptHeader is the first line of transcript.jsonl: the snapshot
// constructor parameters, so the batch lines alone rebuild a
// search.Snapshot.
type transcriptHeader struct {
	Format    string           `json:"format"`
	Version   int              `json:"version"`
	Algorithm search.Algorithm `json:"algorithm"`
	Seed      int64            `json:"seed"`
	Budget    int              `json:"budget"`
}

// transcriptBatch is one appended line: one fully told ask batch.
type transcriptBatch struct {
	Trials []search.Trial `json:"trials"`
}

const transcriptFormat = "fast-transcript"

// BeginTranscript opens the study's transcript for appending, writing
// the header line if the file is new. alg, seed and budget are the
// snapshot constructor parameters (see search.Snapshot); they must
// match the existing header when the transcript already has one (the
// resume case appends to it).
func (s *Study) BeginTranscript(alg search.Algorithm, seed int64, budget int) error {
	if s.transcript != nil {
		return nil
	}
	path := filepath.Join(s.dir, transcriptFile)
	existing, err := os.ReadFile(path)
	isNew := errors.Is(err, os.ErrNotExist) || (err == nil && len(existing) == 0)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: read transcript %s: %w", s.dir, err)
	}
	torn := false
	if !isNew {
		hdr, _, truncated, err := parseTranscript(existing)
		if err != nil {
			return fmt.Errorf("store: transcript %s: %w", s.dir, err)
		}
		if hdr.Algorithm != alg || hdr.Seed != seed || hdr.Budget != budget {
			return fmt.Errorf("store: transcript %s header (%s/%d/%d) does not match study (%s/%d/%d)",
				s.dir, hdr.Algorithm, hdr.Seed, hdr.Budget, alg, seed, budget)
		}
		torn = truncated
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: open transcript %s: %w", s.dir, err)
	}
	if torn {
		// A crash tore the final line. Snapshot drops it; the file must
		// lose it too, or the next append lands glued to the torn bytes
		// as a corrupt line mid-transcript.
		if err := s.truncate(f, int64(bytes.LastIndexByte(existing, '\n')+1)); err != nil {
			f.Close()
			return fault.Retryable("store.truncate", fmt.Errorf("store: drop torn transcript tail %s: %w", s.dir, err))
		}
	}
	if isNew {
		hdr := transcriptHeader{Format: transcriptFormat, Version: FormatVersion, Algorithm: alg, Seed: seed, Budget: budget}
		if err := s.appendLine(f, mustJSON(hdr)); err != nil {
			f.Close()
			return fmt.Errorf("store: write transcript header %s: %w", s.dir, err)
		}
		if err := s.store.syncDir(s.dir); err != nil {
			f.Close()
			return err
		}
	}
	s.transcript = f
	return nil
}

// AppendBatch durably appends one told batch to the transcript: the
// line is written and fsync'd before AppendBatch returns, so a batch
// the caller has seen acknowledged is never lost to a crash. It
// returns the number of bytes appended (for write-volume metrics).
// BeginTranscript must have been called. Write and fsync failures come
// back classified fault.ClassRetryable: the transcript up to
// the last acknowledged append is still durable, so stopping the study
// and resuming later is always safe.
func (s *Study) AppendBatch(batch []search.Trial) (int, error) {
	if s.transcript == nil {
		return 0, fault.Terminal("store.append", fmt.Errorf("store: AppendBatch %s before BeginTranscript", s.dir))
	}
	line := mustJSON(transcriptBatch{Trials: batch})
	if err := s.appendLine(s.transcript, line); err != nil {
		return 0, fault.Retryable("store.append", fmt.Errorf("store: append batch %s: %w", s.dir, err))
	}
	return len(line) + 1, nil
}

// appendLine writes data plus newline and fsyncs, with the fault seam
// interposed before the write and before the fsync.
func (s *Study) appendLine(f *os.File, data []byte) error {
	if err := s.store.do(OpWrite, f.Name(), func() error { _, err := f.Write(append(data, '\n')); return err }); err != nil {
		return err
	}
	return s.store.do(OpSync, f.Name(), f.Sync)
}

// truncate cuts f to its first n bytes and fsyncs, with the fault seam
// interposed as in appendLine.
func (s *Study) truncate(f *os.File, n int64) error {
	if err := s.store.do(OpWrite, f.Name(), func() error { return f.Truncate(n) }); err != nil {
		return err
	}
	return s.store.do(OpSync, f.Name(), f.Sync)
}

// CloseTranscript releases the append handle (idempotent). The data is
// already durable — every append fsync'd — so Close has no flush role;
// a close failure is still reported (classified retryable) because a
// handle the OS refuses to release is an operator signal, not noise.
func (s *Study) CloseTranscript() error {
	if s.transcript == nil {
		return nil
	}
	f := s.transcript
	s.transcript = nil
	err := s.store.fsOp(OpClose, f.Name())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fault.Retryable("store.close", fmt.Errorf("store: close transcript %s: %w", s.dir, err))
	}
	return nil
}

// Snapshot loads the durable transcript as a search.Snapshot ready for
// search.Restore / core.WithResume. truncated reports that a torn final
// line (a crash mid-append) was dropped; the snapshot then holds every
// batch that was durably acknowledged. A study with no transcript yet
// returns an empty snapshot (zero batches) and no error only if spec
// defaults allow; callers treat len(Trials)==0 as "start fresh".
func (s *Study) Snapshot() (snap search.Snapshot, truncated bool, err error) {
	data, err := os.ReadFile(filepath.Join(s.dir, transcriptFile))
	if errors.Is(err, os.ErrNotExist) {
		return search.Snapshot{}, false, nil
	}
	if err != nil {
		return search.Snapshot{}, false, fmt.Errorf("store: read transcript %s: %w", s.dir, err)
	}
	hdr, batches, truncated, err := parseTranscript(data)
	if err != nil {
		// Corruption and version skew are terminal: re-reading the same
		// bytes can never start succeeding.
		return search.Snapshot{}, false, fault.Terminal("store.snapshot", fmt.Errorf("store: transcript %s: %w", s.dir, err))
	}
	snap = search.Snapshot{Algorithm: hdr.Algorithm, Seed: hdr.Seed, Budget: hdr.Budget}
	for _, b := range batches {
		snap.Append(b.Trials)
	}
	if err := snap.Validate(); err != nil {
		return search.Snapshot{}, false, fmt.Errorf("store: transcript %s: %w: %v", s.dir, errCorrupt, err)
	}
	return snap, truncated, nil
}

// parseTranscript splits the transcript into header and batches.
// Only the final line may be torn (unparsable or missing its newline):
// that is the crash-mid-append signature, dropped and reported via
// truncated. An unparsable line anywhere earlier is ErrCorrupt.
func parseTranscript(data []byte) (hdr transcriptHeader, batches []transcriptBatch, truncated bool, err error) {
	if len(data) == 0 {
		return hdr, nil, false, fmt.Errorf("%w: empty transcript", errCorrupt)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	complete := bytes.HasSuffix(data, []byte("\n"))

	var lines [][]byte
	for sc.Scan() {
		line := make([]byte, len(sc.Bytes()))
		copy(line, sc.Bytes())
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		return hdr, nil, false, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	if len(lines) == 0 {
		return hdr, nil, false, fmt.Errorf("%w: empty transcript", errCorrupt)
	}

	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		if len(lines) == 1 && !complete {
			return hdr, nil, false, fmt.Errorf("%w: torn transcript header", errCorrupt)
		}
		return hdr, nil, false, fmt.Errorf("%w: bad transcript header: %v", errCorrupt, err)
	}
	if hdr.Format != transcriptFormat {
		return hdr, nil, false, fmt.Errorf("%w: transcript format %q", errCorrupt, hdr.Format)
	}
	if hdr.Version != FormatVersion {
		return hdr, nil, false, fmt.Errorf("transcript version %d, this binary reads %d: %w",
			hdr.Version, FormatVersion, errVersionMismatch)
	}

	for i, line := range lines[1:] {
		if i == len(lines)-2 && !complete {
			// A missing final newline means the last append never
			// finished (each append is one write of line+newline, acked
			// by fsync). Drop it even if the bytes happen to parse: the
			// batch was never acknowledged, and the resumed run will
			// re-evaluate it identically.
			return hdr, batches, true, nil
		}
		var b transcriptBatch
		if json.Unmarshal(line, &b) != nil || len(b.Trials) == 0 {
			return hdr, nil, false, fmt.Errorf("%w: bad batch at line %d", errCorrupt, i+2)
		}
		batches = append(batches, b)
	}
	return hdr, batches, false, nil
}
