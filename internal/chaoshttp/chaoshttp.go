// Package chaoshttp is the whole-system fault harness for the serving
// stack: it wires a real daemon (internal/serve) over a real store
// and, for plans with transport faults, a real dispatch pool, both
// faulted by one seeded chaos.Plan (internal/dispatch/chaos: StoreHook
// feeds internal/store's FaultHook seam, Wrap the pool's dialer);
// store-only plans keep the daemon's default in-process evaluation.
// It then drives the daemon over HTTP the way a
// rude world would — submission bursts past quota, clients
// disconnecting mid-SSE, workers dying mid-chunk, fsync stalling or
// failing.
//
// The harness exists to prove three whole-system properties that no
// single package's tests can:
//
//   - Liveness: no seeded fault plan crashes the daemon; /healthz
//     answers 200 throughout.
//   - Governance: over-quota submissions shed 429 with a Retry-After
//     hint while in-quota studies run to completion.
//   - Durability: a study interrupted by any fault resumes to a
//     transcript byte-identical to an unfaulted run's.
//
// Every fault draw comes from a plan-seeded generator, so a failing
// plan replays exactly. The harness is the package's test
// (chaos_test.go); this file only documents it.
package chaoshttp
