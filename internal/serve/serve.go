// Package serve is the FAST study daemon: a multi-tenant HTTP/JSON
// service (cmd/fast-serve) that runs many accelerator-search studies
// concurrently on one simulator process, checkpointing every study
// durably enough to survive a crash and resume bit-identically.
//
// The layering is strict: serve owns the HTTP surface, the study
// lifecycle state machine, per-tenant admission control, and event
// fan-out; internal/core runs the studies; internal/store persists
// them; internal/obsv counts everything. Nothing here influences
// search results — a study run through the daemon produces the exact
// transcript the same core.Study produces in a unit test, which is what
// makes the restart-resume differential in serve_test.go possible.
//
// Lifecycle: a study is queued on POST /v1/studies, runs when its
// tenant has a free concurrency slot, and ends done, failed, or
// canceled. A study found queued or running at start-up was orphaned by
// a crash or restart and becomes "interrupted"; POST .../resume
// restores it from its durable transcript and continues exactly where
// the last fsync'd batch left off. Events stream per study over SSE at
// GET /v1/studies/{id}/events; metrics aggregate process-wide at
// GET /debug/vars.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"fast/internal/core"
	"fast/internal/obsv"
	"fast/internal/search"
	"fast/internal/sim"
	"fast/internal/store"
)

// Config assembles a Server. Store is required; everything else
// defaults.
type Config struct {
	// Store is the durability root for specs, transcripts, and status.
	Store *store.Store
	// Metrics receives the daemon's instruments; nil creates a private
	// registry (exposed at /debug/vars either way).
	Metrics *obsv.Registry

	// MaxStudiesPerTenant caps stored studies per tenant (default 64);
	// submissions beyond it are rejected 429 until studies are deleted
	// from the store out of band.
	MaxStudiesPerTenant int
	// MaxActivePerTenant caps concurrently running studies per tenant
	// (default 2); excess studies queue in submission order.
	MaxActivePerTenant int
	// MaxTrialsPerStudy caps the trial budget of one study (default
	// 2000).
	MaxTrialsPerStudy int
	// Parallelism is the evaluation worker count per running study
	// (default: core's default, one per CPU).
	Parallelism int

	// MaxQueuedPerTenant caps studies waiting for a concurrency slot
	// per tenant (default 8); submissions and resumes beyond it are
	// shed 429 with a Retry-After hint instead of growing the queue
	// without bound.
	MaxQueuedPerTenant int

	// Dispatch, when set, routes every study's batch evaluation through
	// a dispatcher (internal/dispatch's worker pool). Dispatch changes
	// where evaluations run, never their results, so checkpoints,
	// resume, and the restart differential are unaffected.
	Dispatch core.DispatchFunc

	// Logf, when set, receives one structured line per request and per
	// study state transition.
	Logf func(format string, args ...any)

	// batchHook, when set, runs at the top of every checkpoint append
	// (before the batch is written). Test seam only: with warm plan
	// caches whole studies finish in milliseconds, so lifecycle tests
	// use it to hold a study mid-run deterministically instead of
	// racing the clock.
	batchHook func(tenant, id string)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxStudiesPerTenant <= 0 {
		out.MaxStudiesPerTenant = 64
	}
	if out.MaxActivePerTenant <= 0 {
		out.MaxActivePerTenant = 2
	}
	if out.MaxTrialsPerStudy <= 0 {
		out.MaxTrialsPerStudy = 2000
	}
	if out.MaxQueuedPerTenant <= 0 {
		out.MaxQueuedPerTenant = 8
	}
	if out.Metrics == nil {
		out.Metrics = obsv.NewRegistry()
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// Server is the daemon. Create with New, mount via Handler, stop with
// Close.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	metrics *metrics

	baseCtx   context.Context
	cancelAll context.CancelFunc
	wg        sync.WaitGroup

	mu      sync.Mutex
	closed  bool
	studies map[string]*study        // key: tenant + "/" + id
	slots   map[string]chan struct{} // per-tenant concurrency semaphores
	seq     int                      // id allocator for unnamed studies
	// creating reserves the keys of studies whose create is writing
	// their spec, without the lock; the value is the tenant.
	creating map[string]string
}

// study is the in-memory face of one stored study. state and the
// progress fields are guarded by the server mutex; the store handle is
// touched only by the single run goroutine (or, between runs, by
// handlers holding the server mutex).
type study struct {
	tenant, id string
	spec       store.Spec
	cs         core.Study // spec, resolved; fixed for the study's life
	stored     *store.Study

	state        string
	trialsDone   int
	trialsTarget int
	best         search.Trial // best feasible trial told (maximize-oriented Value)
	errMsg       string
	errClass     string // fault class of errMsg ("retryable"/"terminal"/"unknown")

	cancel context.CancelFunc // non-nil while queued or running
	result *core.StudyResult  // materialized in-process when done
	hub    *eventHub
}

func (st *study) key() string { return st.tenant + "/" + st.id }

// observe folds durably told trials into st's progress, promoting the
// best by search.Result.Observe's rule: per checkpointed batch in the
// run loop, over the whole transcript in New and resume.
func (st *study) observe(trials []search.Trial) {
	st.trialsDone += len(trials)
	for _, t := range trials {
		if t.Feasible && (!st.best.Feasible || t.Value > st.best.Value) {
			st.best = t
		}
	}
}

// New builds the daemon around a store, recovering restart state:
// studies the previous process left queued or running are marked
// "interrupted" (resumable), everything else keeps its stored state.
// Progress is read from each study's transcript.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: Config.Store is required")
	}
	c := cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       c,
		baseCtx:   ctx,
		cancelAll: cancel,
		studies:   map[string]*study{},
		creating:  map[string]string{},
		slots:     map[string]chan struct{}{},
	}
	s.metrics = newMetrics(c.Metrics)
	s.buildMux()

	stored, skipped, err := c.Store.List()
	if err != nil {
		cancel()
		return nil, err
	}
	for _, sd := range stored {
		sp := sd.Spec()
		if d := sd.DroppedILPDeadlineSec(); d > 0 {
			c.Logf("level=warn msg=\"ilp_deadline_sec is no longer read; the study's final report runs under the default ILP node budget\" tenant=%s id=%s ilp_deadline_sec=%g",
				sp.Tenant, sp.ID, d)
		}
		status, serr := sd.Status()
		if serr != nil {
			c.Logf("level=warn msg=\"skipping study with unreadable status\" tenant=%s id=%s err=%q",
				sp.Tenant, sp.ID, serr)
			continue
		}
		cs, rerr := coreStudy(sp)
		if rerr != nil {
			c.Logf("level=warn msg=\"skipping study with invalid spec\" tenant=%s id=%s err=%q",
				sp.Tenant, sp.ID, rerr)
			continue
		}
		if status.State == store.StateRunning || status.State == store.StateQueued {
			// Orphaned by the previous process: no run goroutine exists
			// anymore, so the durable transcript is the whole truth.
			status.State = store.StateInterrupted
			if err := sd.SetStatus(status); err != nil {
				cancel()
				return nil, err
			}
			s.metrics.studiesInterrupted.Inc()
		}
		st := &study{
			tenant:       sp.Tenant,
			id:           sp.ID,
			spec:         sp,
			cs:           cs,
			stored:       sd,
			state:        status.State,
			trialsTarget: status.TrialsTarget,
			errMsg:       status.Error,
			errClass:     status.ErrorClass,
			hub:          newEventHub(),
		}
		// The durable prefix, as resume reads it: a torn final line does
		// not count. An unreadable transcript still lists (resume answers
		// 409 for it), with no progress.
		if snap, _, err := sd.Snapshot(); err != nil {
			c.Logf("level=warn msg=\"listing study with unreadable transcript\" tenant=%s id=%s err=%q",
				sp.Tenant, sp.ID, err)
		} else {
			st.observe(snap.Trials)
		}
		s.studies[st.key()] = st
	}
	if skipped != nil {
		c.Logf("level=warn msg=\"store recovery skipped broken studies\" err=%q", skipped)
	}
	return s, nil
}

// Handler returns the daemon's HTTP handler (request-logging and
// metrics middleware included).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.httpRequests.Inc()
		//fast:allow nondetsource request latency is log metadata, never search state
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		s.mux.ServeHTTP(sw, r)
		//fast:allow nondetsource request latency is log metadata, never search state
		dur := time.Since(t0).Round(time.Millisecond)
		s.cfg.Logf("level=info method=%s path=%s status=%d dur=%s",
			r.Method, r.URL.Path, sw.code, dur)
	})
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards flushing to the underlying writer so SSE streaming
// works through the middleware.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Close stops the daemon: cancels every running study (their last
// durable checkpoints stand; they restart as "interrupted") and waits
// for run goroutines to drain.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancelAll()
	s.wg.Wait()
	// Every run goroutine has finished: in-flight studies are now
	// durably checkpointed and marked interrupted. Close the remaining
	// hubs (idle, queued-never-started, or pre-restart studies) with the
	// shutdown frame so no SSE subscriber is left waiting — after this
	// returns, http.Server.Shutdown has no streams to drain.
	s.mu.Lock()
	hubs := make([]*eventHub, 0, len(s.studies))
	//fast:allow detrange hub close order is irrelevant; closeWith is idempotent per hub
	for _, st := range s.studies {
		if st.hub != nil {
			hubs = append(hubs, st.hub)
		}
	}
	s.mu.Unlock()
	for _, h := range hubs {
		h.closeWith("shutdown")
	}
}

// slot returns the tenant's concurrency semaphore.
func (s *Server) slot(tenant string) chan struct{} {
	if ch, ok := s.slots[tenant]; ok {
		return ch
	}
	ch := make(chan struct{}, s.cfg.MaxActivePerTenant)
	s.slots[tenant] = ch
	return ch
}

// coreStudy maps a stored spec onto the resolved core.Study that its
// summaries, transcript header and streamed front read (Trials is the
// spec's; each run sets its own target).
func coreStudy(sp store.Spec) (core.Study, error) {
	cs := core.Study{
		Workloads:       sp.Workloads,
		Algorithm:       search.Algorithm(sp.Algorithm),
		Trials:          sp.Trials,
		Seed:            sp.Seed,
		FrontCap:        sp.FrontCap,
		LatencyBoundSec: sp.LatencyBoundSec,
	}
	var err error
	if cs.Objectives, err = core.ParseObjectives(sp.Objectives); err != nil {
		return cs, err
	}
	if len(sp.Objectives) == 0 && sp.Objective != "" {
		if cs.Objective, err = core.ParseObjective(sp.Objective); err != nil {
			return cs, err
		}
	}
	if sp.ILPNodes > 0 {
		// The node budget is algorithmic state (it can change the final
		// report's fusion solutions), so it lives in the spec and a
		// resumed study solves under the budget the original run had.
		so := sim.FASTOptions()
		so.Fusion.MaxNodes = sp.ILPNodes
		cs.SimOptions = &so
	}
	return cs.Resolved()
}
