package serve

import (
	"time"

	"fast/internal/core"
	"fast/internal/obsv"
)

// metrics is the daemon's instrument bundle. Every name, kind, and help
// string here is surfaced by obsv.Registry.Catalog and documented in
// docs/OPERATIONS.md — keep the three in sync.
type metrics struct {
	httpRequests *obsv.Counter

	studiesCreated     *obsv.Counter
	studiesResumed     *obsv.Counter
	studiesCompleted   *obsv.Counter
	studiesFailed      *obsv.Counter
	studiesCanceled    *obsv.Counter
	studiesInterrupted *obsv.Counter
	studiesActive      *obsv.Gauge
	studiesQueued      *obsv.Gauge

	sseClients *obsv.Gauge

	trialsTotal *obsv.Counter
	trialsRate  *obsv.Meter

	checkpointWrites *obsv.Counter
	checkpointBytes  *obsv.Counter

	ilpDeadlineHits *obsv.Counter

	shedTotal      *obsv.Counter
	shedQueue      *obsv.Counter
	shedStudyQuota *obsv.Counter

	deadlineExpired *obsv.Counter
	quarantined     *obsv.Counter
}

func newMetrics(r *obsv.Registry) *metrics {
	m := &metrics{
		httpRequests: r.NewCounter("fastserve_http_requests_total",
			"HTTP requests served, all endpoints."),

		studiesCreated: r.NewCounter("fastserve_studies_created_total",
			"Studies accepted by POST /v1/studies."),
		studiesResumed: r.NewCounter("fastserve_studies_resumed_total",
			"Resume requests accepted (restart recovery and trial extensions)."),
		studiesCompleted: r.NewCounter("fastserve_studies_completed_total",
			"Studies that reached state done."),
		studiesFailed: r.NewCounter("fastserve_studies_failed_total",
			"Studies that reached state failed (evaluation or checkpoint error)."),
		studiesCanceled: r.NewCounter("fastserve_studies_canceled_total",
			"Studies canceled by POST .../cancel."),
		studiesInterrupted: r.NewCounter("fastserve_studies_interrupted_total",
			"Studies found queued or running at start-up and marked interrupted."),
		studiesActive: r.NewGauge("fastserve_studies_active",
			"Studies currently evaluating trials."),
		studiesQueued: r.NewGauge("fastserve_studies_queued",
			"Studies waiting for a tenant concurrency slot."),

		sseClients: r.NewGauge("fastserve_sse_clients",
			"Connected event-stream subscribers."),

		trialsTotal: r.NewCounter("fastserve_trials_total",
			"Design evaluations checkpointed across all studies."),
		trialsRate: r.NewMeter("fastserve_trials_per_sec",
			"Design evaluations per second, trailing 30s window.", 30*time.Second),

		checkpointWrites: r.NewCounter("fastserve_checkpoint_writes_total",
			"Durable (fsync'd) transcript batch appends."),
		checkpointBytes: r.NewCounter("fastserve_checkpoint_bytes_total",
			"Bytes of transcript appended, before fsync."),

		ilpDeadlineHits: r.NewCounter("fastserve_ilp_deadline_hits_total",
			"Final-report fusion solves that returned an incumbent at the ILP deadline or stall limit instead of a proven optimum."),

		shedTotal: r.NewCounter("fastserve_shed_total",
			"Requests shed with Retry-After, all overload reasons."),
		shedQueue: r.NewCounter("fastserve_shed_queue_total",
			"Submissions/resumes shed 429 because the tenant's study queue was full."),
		shedStudyQuota: r.NewCounter("fastserve_shed_study_quota_total",
			"Submissions shed 429 because the tenant was at its stored-study quota."),

		deadlineExpired: r.NewCounter("fastserve_deadline_expired_total",
			"Studies stopped at their wall-clock deadline (durable prefix retained)."),
		quarantined: r.NewCounter("fastserve_studies_quarantined_total",
			"Studies failed terminally by a panicking objective; the daemon survived."),
	}

	// The plan cache lives in internal/core and is shared by every
	// study; export its counters through read-time func gauges.
	r.NewFunc("fast_plan_cache_hits_total",
		"Plan cache lookups that found their compiled plan.",
		func() float64 { return float64(core.PlanCacheInfo().Hits) })
	r.NewFunc("fast_plan_cache_misses_total",
		"Plan cache lookups that compiled a new plan.",
		func() float64 { return float64(core.PlanCacheInfo().Misses) })
	r.NewFunc("fast_plan_cache_evictions_total",
		"Compiled plans dropped at the plan cache's entry cap.",
		func() float64 { return float64(core.PlanCacheInfo().Evictions) })
	r.NewFunc("fast_plan_cache_entries",
		"Compiled plans currently cached.",
		func() float64 { return float64(core.PlanCacheInfo().Entries) })
	return m
}
