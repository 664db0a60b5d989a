package serve

// Admission control: the daemon sheds load it cannot absorb instead of
// degrading everyone (docs/OPERATIONS.md, "Overload & quotas"). Each
// tenant gets MaxStudiesPerTenant stored studies and MaxQueuedPerTenant
// studies waiting for a slot; submissions beyond either are shed 429
// with a Retry-After hint rather than growing an unbounded backlog.

import (
	"net/http"

	"fast/internal/store"
)

// retryAfterSecs is the Retry-After hint on every shed response.
const retryAfterSecs = "5"

// shed writes one overload response: the uniform error body plus a
// Retry-After hint so well-behaved clients back off instead of
// hammering a daemon that already told them no.
func (s *Server) shed(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Retry-After", retryAfterSecs)
	s.metrics.shedTotal.Inc()
	httpError(w, code, format, args...)
}

// queuedLocked counts the tenant's studies waiting for a concurrency
// slot. Caller holds s.mu.
func (s *Server) queuedLocked(tenant string) int {
	n := 0
	for _, st := range s.studies {
		if st.tenant == tenant && st.state == store.StateQueued {
			n++
		}
	}
	return n
}
