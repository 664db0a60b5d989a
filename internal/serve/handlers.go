package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"

	"fast/internal/arch"
	"fast/internal/models"
	"fast/internal/search"
	"fast/internal/sim"
	"fast/internal/store"
)

func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/studies", s.handleCreate)
	mux.HandleFunc("GET /v1/studies", s.handleList)
	mux.HandleFunc("GET /v1/studies/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/studies/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/studies/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/studies/{id}/cancel", s.handleCancel)
	mux.HandleFunc("POST /v1/studies/{id}/resume", s.handleResume)
	mux.Handle("GET /debug/vars", s.cfg.Metrics.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	s.mux = mux
}

// httpError writes the uniform error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	// Marshal before committing the status line: an encoding failure must
	// surface as a 500, not a truncated 2xx body.
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, "{\"error\": %q}\n", "response encoding failed: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	w.Write(data) //nolint:errcheck // response already committed
	w.Write([]byte("\n"))
}

// tenantOf resolves the request's tenant: the ?tenant= query parameter,
// defaulting to "default".
func tenantOf(r *http.Request) string {
	if t := r.URL.Query().Get("tenant"); t != "" {
		return t
	}
	return "default"
}

// summaryJSON is the study representation every listing/status endpoint
// returns.
type summaryJSON struct {
	Tenant       string   `json:"tenant"`
	ID           string   `json:"id"`
	State        string   `json:"state"`
	Workloads    []string `json:"workloads"`
	Objective    string   `json:"objective,omitempty"`
	Objectives   []string `json:"objectives,omitempty"`
	Algorithm    string   `json:"algorithm"`
	Seed         int64    `json:"seed"`
	TrialsDone   int      `json:"trials_done"`
	TrialsTarget int      `json:"trials_target"`
	BestValue    float64  `json:"best_value"`
	BestFeasible bool     `json:"best_feasible"`
	Error        string   `json:"error,omitempty"`
	// ErrorClass carries the fault taxonomy of Error: "retryable"
	// (resubmitting/resuming can succeed), "terminal" (it cannot), or
	// "unknown" (unclassified; treat as terminal).
	ErrorClass string `json:"error_class,omitempty"`
}

func (s *Server) summaryLocked(st *study) summaryJSON {
	return summaryJSON{
		Tenant:       st.tenant,
		ID:           st.id,
		State:        st.state,
		Workloads:    st.spec.Workloads,
		Objective:    st.spec.Objective,
		Objectives:   st.spec.Objectives,
		Algorithm:    string(resolveAlgorithm(st.spec)),
		Seed:         st.spec.Seed,
		TrialsDone:   st.trialsDone,
		TrialsTarget: st.trialsTarget,
		BestValue:    st.bestValue,
		BestFeasible: st.bestFeasible,
		Error:        st.errMsg,
		ErrorClass:   st.errClass,
	}
}

func (s *Server) summary(st *study) summaryJSON {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.summaryLocked(st)
}

// lookup resolves {id} + tenant to the in-memory study.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *study {
	tenant, id := tenantOf(r), r.PathValue("id")
	s.mu.Lock()
	st := s.studies[tenant+"/"+id]
	s.mu.Unlock()
	if st == nil {
		httpError(w, http.StatusNotFound, "study %s/%s not found", tenant, id)
		return nil
	}
	return st
}

// createRequest is the POST /v1/studies body.
type createRequest struct {
	Tenant          string   `json:"tenant"`
	ID              string   `json:"id"`
	Workloads       []string `json:"workloads"`
	Objective       string   `json:"objective"`
	Objectives      []string `json:"objectives"`
	Algorithm       string   `json:"algorithm"`
	Trials          int      `json:"trials"`
	Seed            int64    `json:"seed"`
	BatchSize       int      `json:"batch_size"`
	FrontCap        int      `json:"front_cap"`
	LatencyBoundSec float64  `json:"latency_bound_sec"`
	// DeadlineSec bounds the study's wall-clock run time (0 = none).
	// A study that hits it fails with a retryable "deadline exceeded"
	// error; the durable prefix stays resumable.
	DeadlineSec float64 `json:"deadline_sec"`
	// ILPDeadlineSec bounds each final-report exact-ILP fusion solve
	// (0 = simulator default); above 2 s it also raises the solve's
	// stall limit in proportion. Spec-fixed so resumes solve under the
	// same deadline the original run would have.
	ILPDeadlineSec float64 `json:"ilp_deadline_sec"`
}

var validAlgorithms = map[string]bool{
	"": true, string(search.AlgRandom): true, string(search.AlgLCS): true,
	string(search.AlgBayes): true, string(search.AlgNSGA2): true,
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	// The body's tenant wins; fall back to ?tenant= so creation addresses
	// tenants the same way every read endpoint does.
	if req.Tenant == "" {
		req.Tenant = tenantOf(r)
	}
	if len(req.Workloads) == 0 {
		httpError(w, http.StatusBadRequest, "workloads must be non-empty")
		return
	}
	for _, wl := range req.Workloads {
		if err := models.Validate(wl); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if req.Trials <= 0 || req.Trials > s.cfg.MaxTrialsPerStudy {
		httpError(w, http.StatusBadRequest, "trials must be in 1..%d", s.cfg.MaxTrialsPerStudy)
		return
	}
	if !validAlgorithms[req.Algorithm] {
		httpError(w, http.StatusBadRequest, "unknown algorithm %q", req.Algorithm)
		return
	}
	if req.DeadlineSec < 0 || req.ILPDeadlineSec < 0 {
		httpError(w, http.StatusBadRequest, "deadline_sec and ilp_deadline_sec must be >= 0")
		return
	}
	sp := store.Spec{
		Tenant:          req.Tenant,
		ID:              req.ID,
		Workloads:       req.Workloads,
		Objective:       req.Objective,
		Objectives:      req.Objectives,
		Algorithm:       req.Algorithm,
		Trials:          req.Trials,
		Seed:            req.Seed,
		BatchSize:       req.BatchSize,
		FrontCap:        req.FrontCap,
		LatencyBoundSec: req.LatencyBoundSec,
		DeadlineSec:     req.DeadlineSec,
		ILPDeadlineSec:  req.ILPDeadlineSec,
		Created:         s.now(),
	}
	// Parse objectives now so an unknown name is a 400, not a failed
	// study later.
	if _, err := coreStudy(sp, sp.Trials); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	owned := 0
	for _, st := range s.studies {
		if st.tenant == sp.Tenant {
			owned++
		}
	}
	if owned >= s.cfg.MaxStudiesPerTenant {
		s.mu.Unlock()
		s.metrics.shedStudyQuota.Inc()
		s.shed(w, http.StatusTooManyRequests, "tenant %s at its study quota (%d)", sp.Tenant, s.cfg.MaxStudiesPerTenant)
		return
	}
	if s.queuedLocked(sp.Tenant) >= s.cfg.MaxQueuedPerTenant {
		s.mu.Unlock()
		s.metrics.shedQueue.Inc()
		s.shed(w, http.StatusTooManyRequests, "tenant %s queue full (%d studies waiting)", sp.Tenant, s.cfg.MaxQueuedPerTenant)
		return
	}
	if sp.ID == "" {
		s.seq++
		sp.ID = fmt.Sprintf("study-%04d", s.seq)
		for s.studies[sp.Tenant+"/"+sp.ID] != nil {
			s.seq++
			sp.ID = fmt.Sprintf("study-%04d", s.seq)
		}
	} else if s.studies[sp.Tenant+"/"+sp.ID] != nil {
		s.mu.Unlock()
		httpError(w, http.StatusConflict, "study %s/%s already exists", sp.Tenant, sp.ID)
		return
	}

	stored, err := s.cfg.Store.Create(sp)
	if err != nil {
		s.mu.Unlock()
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st := &study{
		tenant:       sp.Tenant,
		id:           sp.ID,
		spec:         sp,
		stored:       stored,
		state:        store.StateQueued,
		trialsTarget: sp.Trials,
		hub:          newEventHub(),
	}
	s.studies[st.key()] = st
	s.launchLocked(st, nil, sp.Trials)
	out := s.summaryLocked(st)
	s.mu.Unlock()

	s.metrics.studiesCreated.Inc()
	s.cfg.Logf("level=info msg=created tenant=%s id=%s trials=%d", sp.Tenant, sp.ID, sp.Trials)
	writeJSON(w, http.StatusCreated, out)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	s.mu.Lock()
	var out []summaryJSON
	//fast:allow detrange listing is sorted by ID immediately below
	for _, st := range s.studies {
		if st.tenant == tenant {
			out = append(out, s.summaryLocked(st))
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, map[string]any{"studies": out})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if st := s.lookup(w, r); st != nil {
		writeJSON(w, http.StatusOK, s.summary(st))
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if st := s.lookup(w, r); st != nil {
		s.serveSSE(w, r, st)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st := s.lookup(w, r)
	if st == nil {
		return
	}
	s.mu.Lock()
	cancel := st.cancel
	state := st.state
	s.mu.Unlock()
	if cancel == nil {
		httpError(w, http.StatusConflict, "study is %s, nothing to cancel", state)
		return
	}
	cancel()
	writeJSON(w, http.StatusAccepted, map[string]string{"state": "canceling"})
}

// resumeRequest is the POST .../resume body. Trials, when positive,
// becomes the study's new total trial target (it may exceed the
// original spec to warm-continue a finished study).
type resumeRequest struct {
	Trials int `json:"trials"`
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	st := s.lookup(w, r)
	if st == nil {
		return
	}
	var req resumeRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
	}
	if req.Trials > s.cfg.MaxTrialsPerStudy {
		httpError(w, http.StatusBadRequest, "trials must be at most %d", s.cfg.MaxTrialsPerStudy)
		return
	}

	// Load the durable transcript before committing to the resume; a
	// corrupt or future-format checkpoint is an operator problem, not a
	// silent restart from scratch (docs/OPERATIONS.md, "Recovery").
	snap, truncated, err := st.stored.Snapshot()
	if err != nil {
		httpError(w, http.StatusConflict, "checkpoint unusable: %v", err)
		return
	}
	if truncated {
		s.cfg.Logf("level=warn msg=\"dropped torn checkpoint tail\" tenant=%s id=%s durable_trials=%d",
			st.tenant, st.id, len(snap.Trials))
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	switch st.state {
	case store.StateQueued, store.StateRunning:
		state := st.state
		s.mu.Unlock()
		httpError(w, http.StatusConflict, "study is %s", state)
		return
	}
	if s.queuedLocked(st.tenant) >= s.cfg.MaxQueuedPerTenant {
		s.mu.Unlock()
		s.metrics.shedQueue.Inc()
		s.shed(w, http.StatusTooManyRequests, "tenant %s queue full (%d studies waiting)", st.tenant, s.cfg.MaxQueuedPerTenant)
		return
	}
	target := st.trialsTarget
	if req.Trials > 0 {
		target = req.Trials
	}
	st.state = store.StateQueued
	st.errMsg = ""
	st.errClass = ""
	st.trialsDone = len(snap.Trials)
	st.trialsTarget = target
	st.hub = newEventHub() // prior hub was closed at the terminal state
	var snapPtr *search.Snapshot
	if len(snap.Trials) > 0 {
		snapPtr = &snap
	}
	s.launchLocked(st, snapPtr, target)
	out := s.summaryLocked(st)
	s.mu.Unlock()

	s.metrics.studiesResumed.Inc()
	s.cfg.Logf("level=info msg=resumed tenant=%s id=%s durable_trials=%d target=%d",
		st.tenant, st.id, len(snap.Trials), target)
	writeJSON(w, http.StatusAccepted, out)
}

// resultJSON is the GET .../result payload.
type resultJSON struct {
	Tenant       string         `json:"tenant"`
	ID           string         `json:"id"`
	BestValue    float64        `json:"best_value"`
	BestFeasible bool           `json:"best_feasible"`
	Best         *arch.Config   `json:"best,omitempty"`
	PerWorkload  []workloadJSON `json:"per_workload,omitempty"`
	Front        []frontJSON    `json:"front,omitempty"`
}

type workloadJSON struct {
	Name         string  `json:"name"`
	QPS          float64 `json:"qps"`
	LatencySec   float64 `json:"latency_sec"`
	PerfPerTDP   float64 `json:"perf_per_tdp"`
	TDPWatts     float64 `json:"tdp_w"`
	AreaMM2      float64 `json:"area_mm2"`
	FusionMethod string  `json:"fusion_method"`
	FusionGap    float64 `json:"fusion_gap,omitempty"`
}

type frontJSON struct {
	Index       [arch.NumParams]int `json:"index"`
	Values      []float64           `json:"values"`
	Design      *arch.Config        `json:"design,omitempty"`
	PerWorkload []workloadJSON      `json:"per_workload,omitempty"`
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	st := s.lookup(w, r)
	if st == nil {
		return
	}
	s.mu.Lock()
	state, res := st.state, st.result
	s.mu.Unlock()
	if state != store.StateDone {
		httpError(w, http.StatusConflict, "study is %s; the result exists once it is done", state)
		return
	}
	if res == nil {
		// Done in a previous process: the transcript is durable but the
		// final report was never re-materialized here.
		httpError(w, http.StatusConflict,
			"result not materialized in this process; POST /v1/studies/%s/resume re-derives it from the checkpoint", st.id)
		return
	}
	out := resultJSON{
		Tenant:       st.tenant,
		ID:           st.id,
		BestValue:    res.BestValue,
		BestFeasible: res.Search.Best.Feasible,
		Best:         res.Best,
	}
	for _, wr := range res.PerWorkload {
		out.PerWorkload = append(out.PerWorkload, workloadJSONOf(wr.Name, wr.Result))
	}
	for _, pt := range res.Front() {
		fj := frontJSON{Index: pt.Index, Values: pt.Values, Design: pt.Design}
		for _, wr := range pt.PerWorkload {
			fj.PerWorkload = append(fj.PerWorkload, workloadJSONOf(wr.Name, wr.Result))
		}
		out.Front = append(out.Front, fj)
	}
	writeJSON(w, http.StatusOK, out)
}

func workloadJSONOf(name string, r *sim.Result) workloadJSON {
	out := workloadJSON{
		Name:         name,
		QPS:          r.QPS,
		LatencySec:   r.LatencySec,
		PerfPerTDP:   r.PerfPerTDP,
		TDPWatts:     r.TDPWatts,
		AreaMM2:      r.AreaMM2,
		FusionMethod: r.Fusion.Method,
	}
	// A deadline-hit incumbent with no proven bound carries an infinite
	// gap, which JSON cannot represent; omit the field and let
	// fusion_method ("ilp-incumbent") carry the unproven-optimality
	// signal.
	if !math.IsInf(r.Fusion.Gap, 0) && !math.IsNaN(r.Fusion.Gap) {
		out.FusionGap = r.Fusion.Gap
	}
	return out
}
