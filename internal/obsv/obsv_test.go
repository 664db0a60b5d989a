package obsv

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeFunc(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("requests_total", "HTTP requests served.")
	g := r.NewGauge("active", "Active studies.")
	r.NewFunc("cache_bytes", "Plan cache residency.", func() float64 { return 42 })

	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g.Set(3)
	g.Add(-1.5)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", g.Value())
	}

	snap := r.Snapshot()
	if snap["requests_total"] != int64(5) {
		t.Errorf("snapshot counter = %v (%T), want int64(5)", snap["requests_total"], snap["requests_total"])
	}
	if snap["active"] != 1.5 {
		t.Errorf("snapshot gauge = %v, want 1.5", snap["active"])
	}
	if snap["cache_bytes"] != 42.0 {
		t.Errorf("snapshot func = %v, want 42", snap["cache_bytes"])
	}
}

func TestRegistryRejectsDuplicatesAndDecrements(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("x_total", "")
	mustPanic(t, "duplicate name", func() { r.NewGauge("x_total", "") })
	mustPanic(t, "empty name", func() { r.NewCounter("", "") })
	mustPanic(t, "counter decrement", func() { c.Add(-1) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", what)
		}
	}()
	f()
}

func TestCatalogSortedAndComplete(t *testing.T) {
	r := NewRegistry()
	r.NewGauge("zz", "last")
	r.NewCounter("aa_total", "first")
	r.NewMeter("mm_rate", "middle", time.Second)
	cat := r.Catalog()
	if len(cat) != 3 {
		t.Fatalf("catalog has %d entries, want 3", len(cat))
	}
	wantNames := []string{"aa_total", "mm_rate", "zz"}
	wantKinds := []string{"counter", "meter", "gauge"}
	for i := range cat {
		if cat[i].Name != wantNames[i] || cat[i].Kind != wantKinds[i] {
			t.Errorf("catalog[%d] = %+v, want %s/%s", i, cat[i], wantNames[i], wantKinds[i])
		}
	}
}

func TestHandlerServesSortedJSON(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("b_total", "").Add(2)
	r.NewGauge("a", "").Set(1)
	r.NewFunc("nan", "", func() float64 { return 0.0 / zero })

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type = %q", ct)
	}
	var got map[string]float64
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, rec.Body.String())
	}
	if got["b_total"] != 2 || got["a"] != 1 {
		t.Errorf("scrape = %v", got)
	}
	if got["nan"] != 0 {
		t.Errorf("non-finite func value must be clamped to 0, got %v", got["nan"])
	}
	if a, b := strings.Index(rec.Body.String(), `"a"`), strings.Index(rec.Body.String(), `"b_total"`); a > b {
		t.Error("scrape keys are not sorted")
	}
}

// zero defeats the compiler's constant-division-by-zero error while
// still producing NaN at run time.
var zero = 0.0

func TestMeterTrailingWindow(t *testing.T) {
	r := NewRegistry()
	m := r.NewMeter("trials_rate", "Trials per second.", 10*time.Second)
	now := time.Unix(1000, 0)
	m.now = func() time.Time { return now }

	m.Mark(30)
	if got := m.Rate(); got != 3 {
		t.Fatalf("rate = %v, want 3 (30 events / 10s window)", got)
	}
	now = now.Add(5 * time.Second)
	m.Mark(10)
	if got := m.Rate(); got != 4 {
		t.Fatalf("rate = %v, want 4 (40 events in window)", got)
	}
	now = now.Add(6 * time.Second) // first sample ages out
	if got := m.Rate(); got != 1 {
		t.Fatalf("rate = %v, want 1 (only the second sample remains)", got)
	}
	now = now.Add(time.Minute) // everything ages out
	if got := m.Rate(); got != 0 {
		t.Fatalf("rate = %v, want 0 after the window drains", got)
	}
	m.Mark(0) // no-op
	m.Mark(-5)
	if got := m.Rate(); got != 0 {
		t.Fatalf("rate = %v, non-positive marks must be ignored", got)
	}
}

func TestInstrumentsRaceFree(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "")
	g := r.NewGauge("g", "")
	m := r.NewMeter("m_rate", "", time.Second)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				m.Mark(1)
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Errorf("gauge = %v, want 8000", g.Value())
	}
}

// Value returns the current total.
func (c *Counter) Value() int64 { return c.v.Load() }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Catalog returns every registered instrument's description, sorted by
// name.
func (r *Registry) Catalog() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Info, 0, len(r.m))
	for _, inst := range r.m {
		out = append(out, inst.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
