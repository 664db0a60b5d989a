// Package obsv is the observability layer of the FAST serving stack: a
// small, dependency-free metrics registry in the expvar idiom, exported
// as flat JSON at GET /debug/vars by internal/serve.
//
// Four instrument kinds cover the daemon's needs: Counter (monotonic
// totals: trials evaluated, checkpoint writes, cache evictions), Gauge
// (set-point values: active studies, queue depth), Func (values
// computed on read from another subsystem: plan-cache residency from
// core.PlanCacheInfo), and Meter (trailing-window rates: trials/s).
// Every instrument registers under a unique name with a help string,
// which the operations runbook (docs/OPERATIONS.md) documents;
// Snapshot/Handler render current values with deterministic (sorted)
// key order so scrapes diff cleanly.
//
// The package deliberately stays out of the fastlint determinism scope:
// rates need wall-clock time, which the search/simulator layers ban.
// Nothing here feeds back into search results — it is strictly
// reporting.
package obsv

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
)

// Info describes one registered instrument for the metrics catalog.
type Info struct {
	// Name is the registry-unique metric name (by convention
	// snake_case with a subsystem prefix, e.g. fastserve_trials_total).
	Name string `json:"name"`
	// Kind is "counter", "gauge", "func", or "meter".
	Kind string `json:"kind"`
	// Help is a one-line description, surfaced in docs/OPERATIONS.md.
	Help string `json:"help"`
}

// instrument is the internal read interface every kind implements.
type instrument interface {
	info() Info
	read() any // int64 for counters, float64 for the rest
}

// Registry holds a set of uniquely named instruments. The zero value is
// not usable; construct with NewRegistry. Registration is expected at
// daemon start-up; reads and updates are safe from any goroutine.
type Registry struct {
	mu sync.Mutex
	m  map[string]instrument
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{m: map[string]instrument{}}
}

// register adds inst under its name, panicking on a duplicate: two
// subsystems claiming one name is a wiring bug that must fail loudly at
// start-up, not silently shadow a metric.
func (r *Registry) register(inst instrument) {
	name := inst.info().Name
	if name == "" {
		panic("obsv: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[name]; dup {
		panic(fmt.Sprintf("obsv: duplicate metric %q", name))
	}
	r.m[name] = inst
}

// Snapshot returns the current value of every instrument, keyed by
// name. Counter values are int64; gauge, func, and meter values are
// float64 (non-finite values are clamped to 0 so the snapshot always
// marshals).
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	insts := make([]instrument, 0, len(r.m))
	for _, inst := range r.m {
		insts = append(insts, inst)
	}
	r.mu.Unlock()

	out := make(map[string]any, len(insts))
	for _, inst := range insts {
		v := inst.read()
		if f, ok := v.(float64); ok && (math.IsNaN(f) || math.IsInf(f, 0)) {
			v = 0.0
		}
		out[inst.info().Name] = v
	}
	return out
}

// Handler serves the registry as flat JSON with sorted keys — the
// GET /debug/vars endpoint. encoding/json sorts map keys, so repeated
// scrapes diff line-for-line.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Snapshot()) //nolint:errcheck // best-effort scrape
	})
}

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	meta Info
	v    atomic.Int64
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{meta: Info{Name: name, Kind: "counter", Help: help}}
	r.register(c)
	return c
}

// Add increments the counter by n (n must be >= 0; Add panics
// otherwise, since a decreasing "total" corrupts every rate derived
// from it).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("obsv: counter %s decremented by %d", c.meta.Name, n))
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

func (c *Counter) info() Info { return c.meta }
func (c *Counter) read() any  { return c.v.Load() }

// Gauge is a float64 metric that can move both ways.
type Gauge struct {
	meta Info
	bits atomic.Uint64
}

// NewGauge registers and returns a gauge (initially 0).
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{meta: Info{Name: name, Kind: "gauge", Help: help}}
	r.register(g)
	return g
}

// Add adjusts the gauge by delta (atomic compare-and-swap loop).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) info() Info { return g.meta }
func (g *Gauge) read() any  { return g.Value() }

// funcGauge computes its value on every read — the bridge to state
// owned elsewhere (plan-cache residency, queue lengths).
type funcGauge struct {
	meta Info
	f    func() float64
}

// NewFunc registers a gauge whose value is f(), evaluated at snapshot
// time. f must be safe to call from any goroutine.
func (r *Registry) NewFunc(name, help string, f func() float64) {
	r.register(&funcGauge{meta: Info{Name: name, Kind: "func", Help: help}, f: f})
}

func (fg *funcGauge) info() Info { return fg.meta }
func (fg *funcGauge) read() any  { return fg.f() }
