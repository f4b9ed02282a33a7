// Package obs is the zero-dependency observability core: a span tracer
// for execution timelines, a metrics registry of sharded-atomic
// counters and histograms, the per-operator profile tree behind
// EXPLAIN ANALYZE, and exporters for Chrome trace_event JSON,
// plain-text metric dumps and pprof files.
//
// The package exists so the benchmark can answer "where did the time
// go" — which operator, which query, which stream — without
// perturbing what it measures. A run is observed after it finishes:
// every exporter reads the completed record of a finished run, and
// nothing is served while the run is in progress. Two contracts follow:
//
//   - Disabled means free. Every recording method is a method on a
//     pointer receiver that tolerates nil: a nil *Tracer produces nil
//     *Span children, and nil *Span / *Counter / *Histogram methods
//     return before touching memory. Instrumented code threads the
//     possibly-nil handles unconditionally; when tracing is off the
//     hot path pays one nil check and zero allocations (a property the
//     exec tests pin with testing.AllocsPerRun).
//
//   - Observation never alters results. Spans and metrics only read
//     the clock and count; they carry no row data and make no
//     scheduling decisions, so the engine's bit-identical results hold
//     with tracing on or off (the differential tests run under an
//     active tracer to prove it).
//
// Timestamps are monotonic durations since the tracer's epoch
// (time.Since on a time.Time retains the monotonic reading), so spans
// order correctly even across wall-clock adjustments.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span (row counts, table names,
// query ids). Values must be JSON-encodable.
type Attr struct {
	Key string `json:"k"`
	Val any    `json:"v"`
}

// SpanRecord is one completed span as exported: identifiers, interval
// relative to the tracer epoch, and annotations.
type SpanRecord struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Cat    string `json:"cat,omitempty"`
	// TID is the exporter lane: Chrome trace viewers stack spans with
	// the same tid on one horizontal track, so streams get distinct
	// lanes.
	TID     int    `json:"tid"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// Tracer collects completed spans. All methods are goroutine-safe; a
// nil Tracer is a valid disabled tracer (Root returns nil and the
// whole span API degrades to no-ops).
type Tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu   sync.Mutex
	done []SpanRecord
}

// NewTracer returns an enabled tracer whose epoch is now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Span is one in-progress measurement. A span is created by exactly
// one goroutine and must be ended by a goroutine that happens-after
// its creation (End on the creating goroutine, or after a join). The
// attrs slice is owned by that goroutine; only End publishes it.
//
// A nil *Span is the disabled span: every method returns immediately
// and Child returns nil, so instrumentation never branches on
// enablement.
type Span struct {
	tr     *Tracer
	parent *Span
	id     uint64
	name   string
	cat    string
	tid    int
	start  time.Duration
	attrs  []Attr
	ended  bool
}

// Root opens a top-level span. Returns nil on a nil tracer.
func (t *Tracer) Root(name, cat string) *Span {
	if t == nil {
		return nil
	}
	return &Span{
		tr:    t,
		id:    t.ids.Add(1),
		name:  name,
		cat:   cat,
		start: time.Since(t.epoch),
	}
}

// child opens a nested span; cat and tid default to the parent's.
func (s *Span) child(name, cat string, tid int) *Span {
	c := &Span{
		tr:     s.tr,
		parent: s,
		id:     s.tr.ids.Add(1),
		name:   name,
		cat:    cat,
		tid:    tid,
		start:  time.Since(s.tr.epoch),
	}
	return c
}

// Child opens a nested span inheriting the parent's category and lane.
// Returns nil on a nil span.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.child(name, s.cat, s.tid)
}

// ChildCat opens a nested span with its own category (e.g. an "exec"
// operator under a "driver" query).
func (s *Span) ChildCat(name, cat string) *Span {
	if s == nil {
		return nil
	}
	return s.child(name, cat, s.tid)
}

// ChildTID opens a nested span on its own exporter lane (a stream).
func (s *Span) ChildTID(name string, tid int) *Span {
	if s == nil {
		return nil
	}
	return s.child(name, s.cat, tid)
}

// SetAttr annotates the span. Creator goroutine only (see Span).
func (s *Span) SetAttr(key string, val any) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
}

// SetAttrInt annotates the span with an integer. Unlike SetAttr the
// value is boxed only after the nil check, so disabled call sites stay
// allocation-free on the hot path.
func (s *Span) SetAttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Val: v})
}

// Parent returns the enclosing span (nil for roots and nil spans).
func (s *Span) Parent() *Span {
	if s == nil {
		return nil
	}
	return s.parent
}

// End completes the span, publishes its record to the tracer, and
// returns its duration. Idempotent: a second End is a no-op returning
// zero, so "explicit End plus a safety defer End" is safe.
func (s *Span) End() time.Duration {
	if s == nil || s.ended {
		return 0
	}
	s.ended = true
	d := time.Since(s.tr.epoch) - s.start
	rec := SpanRecord{
		ID:      s.id,
		Name:    s.name,
		Cat:     s.cat,
		TID:     s.tid,
		StartNs: int64(s.start),
		DurNs:   int64(d),
		Attrs:   s.attrs,
	}
	if s.parent != nil {
		rec.Parent = s.parent.id
	}
	s.tr.mu.Lock()
	s.tr.done = append(s.tr.done, rec)
	s.tr.mu.Unlock()
	return d
}

// Snapshot returns a copy of every completed span, ordered by start
// time (ties broken by creation id), so exports are deterministic for
// a given execution.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]SpanRecord, len(t.done))
	copy(out, t.done)
	t.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if out[a].StartNs != out[b].StartNs {
			return out[a].StartNs < out[b].StartNs
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// Len reports how many spans have completed.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.done)
}
