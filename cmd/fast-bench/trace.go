package main

import (
	"encoding/json"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the harness's own
// files (around the call, not inside the program). Times are
// nanoseconds since the tracer started; Parent is a span ID, -1 for
// the root. All spans of one traced run share the run's op key.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID. Safe for concurrent use: the
// batch-objective seam is called from several runner goroutines.
func (t *tracer) begin(name string, parent int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: now})
	return id
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// covered returns how much of span id's interval its direct children
// cover: the length of the union of their intervals clipped to the
// parent, so children that overlap (concurrent batch evaluations) are
// not counted twice. only, when non-empty, restricts to children of
// that name.
func covered(spans []span, id int, only string) int64 {
	p := spans[id]
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, s := range spans {
		if s.Parent != id || (only != "" && s.Name != only) {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int {
		if a.lo < b.lo {
			return -1
		}
		if a.lo > b.lo {
			return 1
		}
		return 0
	})
	var total, end int64
	end = p.Start
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		total += v.hi - max(v.lo, end)
		end = v.hi
	}
	return total
}

// selfTime is a span's duration minus the part of that interval its
// child spans cover.
func selfTime(spans []span, id int) int64 { return spans[id].dur() - covered(spans, id, "") }

// chromeTrace renders spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto). Concurrent children of one parent are spread over rows so
// they do not hide each other.
func chromeTrace(runs map[string][]span) ([]byte, error) {
	type ev struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		Ts   int64  `json:"ts"`
		Dur  int64  `json:"dur"`
		Pid  int    `json:"pid"`
		Tid  int    `json:"tid"`
	}
	type meta struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Pid  int               `json:"pid"`
		Args map[string]string `json:"args"`
	}
	var events []any
	keys := make([]string, 0, len(runs))
	for k := range runs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for pid, k := range keys {
		events = append(events, meta{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]string{"name": k}})
		var rowEnd []int64
		for _, s := range runs[k] {
			tid := 0
			if s.Parent >= 0 {
				tid = 1
				for tid-1 < len(rowEnd) && rowEnd[tid-1] > s.Start {
					tid++
				}
				if tid-1 == len(rowEnd) {
					rowEnd = append(rowEnd, 0)
				}
				rowEnd[tid-1] = s.End
			}
			events = append(events, ev{Name: s.Name, Ph: "X", Ts: s.Start / 1e3, Dur: s.dur() / 1e3, Pid: pid, Tid: tid})
		}
	}
	return json.MarshalIndent(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}, "", " ")
}
