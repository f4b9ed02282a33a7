package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a named collection of counters and histograms.
// Lookup (Counter/Histogram) takes a mutex; updates on the
// returned handles are lock-free, so instrumented code resolves its
// handles once and hammers them from any number of goroutines. A nil
// Registry returns nil handles, which are valid disabled instruments.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	histograms map[string]*Histogram
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns (creating if needed) the named histogram, bucketed
// by DurationBuckets. The "_ns" naming convention marks histograms of
// nanosecond observations; WriteText renders those as durations.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = newHistogram(DurationBuckets)
		r.histograms[name] = h
	}
	return h
}

// Counter is a monotonically adjusted sum. Lock-free; the engine adds
// its counters once per query, so one word takes every writer.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter. Safe from any goroutine; a no-op on a
// nil counter.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.n.Add(d)
}

// Value returns the current sum.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// DurationBuckets are the fixed histogram bounds in nanoseconds:
// exponential from 1µs doubling to ~35 minutes. Fixed bounds keep
// Observe allocation-free and make histograms from different runs
// directly comparable.
var DurationBuckets = makeDurationBuckets()

func makeDurationBuckets() []int64 {
	out := make([]int64, 32)
	b := int64(time.Microsecond)
	for i := range out {
		out[i] = b
		b *= 2
	}
	return out
}

// Histogram counts observations into fixed buckets with atomic
// count/max, cheap enough for per-query and per-batch recording.
// Quantiles are approximate (bucket upper bounds, clamped to the exact
// max); Max is exact.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1; last is overflow
	count   atomic.Int64
	max     atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	h := &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one value. Lock-free; safe from any goroutine; a
// no-op on a nil histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Max returns the largest observation (0 before any Observe). Observe
// publishes count before the max CAS lands, so a concurrent reader can
// see count > 0 while max still holds its MinInt64 sentinel; that
// window reads as 0, never as the sentinel.
func (h *Histogram) Max() int64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	m := h.max.Load()
	if m == math.MinInt64 {
		return 0
	}
	return m
}

// Quantile returns an upper bound on the q-quantile from the bucket
// counts, clamped to the exact maximum. q is clamped into (0, 1]: NaN
// and q <= 0 report the lowest occupied bucket, and q >= 1 is exactly
// Max() — the huge-q case used to overflow the target rank and report
// the minimum instead. Zero before any observation.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q >= 1 {
		return h.Max()
	}
	target := int64(1)
	if !math.IsNaN(q) && q > 0 {
		target = int64(math.Ceil(q * float64(n)))
		if target < 1 {
			target = 1
		}
		if target > n {
			target = n
		}
	}
	m := h.max.Load()
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum < target {
			continue
		}
		if i < len(h.bounds) && (m == math.MinInt64 || h.bounds[i] < m) {
			return h.bounds[i]
		}
		break
	}
	if m == math.MinInt64 {
		// Mid-Observe window (count visible, max CAS not yet landed):
		// the overflow bucket has no upper bound to report, so fall
		// back to the largest finite bound rather than the sentinel.
		if len(h.bounds) == 0 {
			return 0 // only the overflow bucket exists
		}
		return h.bounds[len(h.bounds)-1]
	}
	return m
}
