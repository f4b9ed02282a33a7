package obs

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	tr := NewTracer()
	root := tr.Root("run", "driver")
	stream := root.ChildTID("stream 0", 1)
	q := stream.Child("q42")
	op := q.ChildCat("scan store_sales", "exec")
	op.SetAttr("rows", 128)
	time.Sleep(time.Millisecond)
	op.End()
	q.End()
	stream.End()
	root.End()

	snap := tr.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("got %d spans, want 4", len(snap))
	}
	byName := map[string]SpanRecord{}
	for _, s := range snap {
		byName[s.Name] = s
	}
	if byName["stream 0"].Parent != byName["run"].ID {
		t.Errorf("stream parent = %d, want run %d", byName["stream 0"].Parent, byName["run"].ID)
	}
	if byName["q42"].TID != 1 {
		t.Errorf("q42 tid = %d, want inherited 1", byName["q42"].TID)
	}
	if byName["scan store_sales"].Cat != "exec" {
		t.Errorf("operator cat = %q, want exec", byName["scan store_sales"].Cat)
	}
	if got := byName["scan store_sales"].Attrs; len(got) != 1 || got[0].Key != "rows" {
		t.Errorf("operator attrs = %v, want rows", got)
	}
	// Every child interval nests inside its parent's.
	byID := map[uint64]SpanRecord{}
	for _, s := range snap {
		byID[s.ID] = s
	}
	for _, s := range snap {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %q has unknown parent %d", s.Name, s.Parent)
		}
		if s.StartNs < p.StartNs || s.StartNs+s.DurNs > p.StartNs+p.DurNs {
			t.Errorf("span %q [%d,%d] escapes parent %q [%d,%d]",
				s.Name, s.StartNs, s.StartNs+s.DurNs, p.Name, p.StartNs, p.StartNs+p.DurNs)
		}
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTracer()
	sp := tr.Root("x", "test")
	if d := sp.End(); d < 0 {
		t.Errorf("first End = %v, want >= 0", d)
	}
	if d := sp.End(); d != 0 {
		t.Errorf("second End = %v, want 0", d)
	}
	if tr.Len() != 1 {
		t.Errorf("tracer recorded %d spans, want 1", tr.Len())
	}
}

// TestDisabledIsNilSafe drives the whole API through nil receivers —
// the disabled configuration every instrumented call site runs with by
// default — and checks it neither panics nor allocates.
func TestDisabledIsNilSafe(t *testing.T) {
	var tr *Tracer
	var reg *Registry
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Root("x", "y")
		c := sp.Child("a")
		c = c.ChildCat("b", "z")
		c = c.ChildTID("c", 3)
		c.SetAttr("k", 1)
		_ = c.Parent()
		c.End()
		sp.End()
		reg.Counter("n").Add(1)
		reg.Histogram("h_ns").Observe(3)
	})
	if allocs != 0 {
		t.Errorf("disabled path allocates %v times per run, want 0", allocs)
	}
	if tr.Snapshot() != nil || tr.Len() != 0 {
		t.Errorf("nil tracer reports spans")
	}
}

func TestContextPropagation(t *testing.T) {
	ctx := context.Background()
	if SpanFromContext(ctx) != nil {
		t.Fatal("empty context carries a span")
	}
	if got := ContextWithSpan(ctx, nil); got != ctx {
		t.Fatal("nil span should not wrap the context")
	}
	tr := NewTracer()
	sp := tr.Root("q", "driver")
	if got := SpanFromContext(ContextWithSpan(ctx, sp)); got != sp {
		t.Fatalf("got %v, want the stored span", got)
	}
}

func TestHistogramStats(t *testing.T) {
	h := newHistogram(DurationBuckets)
	for i := 1; i <= 100; i++ {
		h.Observe(int64(i) * int64(time.Millisecond))
	}
	if h.Count() != 100 {
		t.Errorf("count = %d, want 100", h.Count())
	}
	if got := h.Max(); got != int64(100*time.Millisecond) {
		t.Errorf("max = %v, want 100ms", time.Duration(got))
	}
	// Bucket quantiles are upper bounds: p50 of 1..100ms falls in the
	// bucket bounded by 65.536ms (2^16 µs).
	p50 := time.Duration(h.Quantile(0.50))
	if p50 < 50*time.Millisecond || p50 > 66*time.Millisecond {
		t.Errorf("p50 = %v, want within [50ms, 66ms]", p50)
	}
	p100 := time.Duration(h.Quantile(1.0))
	if p100 != 100*time.Millisecond {
		t.Errorf("p100 = %v, want exact max 100ms", p100)
	}
	if (&Histogram{}).Quantile(0.5) != 0 {
		t.Errorf("unused histogram quantile should be 0")
	}
}

// TestHistogramQuantileEdges pins the Quantile/Max edge cases: empty
// histograms, q outside [0,1] (a huge q used to overflow the target
// rank and report the minimum bucket), NaN, overflow-bucket values, and
// the Quantile(1.0) == Max() identity.
func TestHistogramQuantileEdges(t *testing.T) {
	edgeQs := []float64{math.Inf(-1), -1, 0, math.NaN(), 0.5, 0.999, 1, 2, 1e300, math.Inf(1)}

	t.Run("empty", func(t *testing.T) {
		h := newHistogram(DurationBuckets)
		if h.Max() != 0 {
			t.Errorf("empty Max = %d, want 0", h.Max())
		}
		for _, q := range edgeQs {
			if got := h.Quantile(q); got != 0 {
				t.Errorf("empty Quantile(%v) = %d, want 0", q, got)
			}
		}
	})

	t.Run("single observation", func(t *testing.T) {
		h := newHistogram(DurationBuckets)
		v := int64(3 * time.Millisecond)
		h.Observe(v)
		for _, q := range edgeQs {
			if got := h.Quantile(q); got != v {
				t.Errorf("Quantile(%v) = %d, want the only observation %d", q, got, v)
			}
		}
	})

	t.Run("overflow bucket", func(t *testing.T) {
		h := newHistogram(DurationBuckets)
		huge := int64(1) << 62 // beyond the largest bound: overflow bucket
		h.Observe(huge)
		h.Observe(int64(time.Millisecond))
		if got := h.Max(); got != huge {
			t.Errorf("Max = %d, want %d", got, huge)
		}
		if got := h.Quantile(1.0); got != h.Max() {
			t.Errorf("Quantile(1.0) = %d, Max() = %d: must be identical", got, h.Max())
		}
		if got := h.Quantile(0.5); got >= huge {
			t.Errorf("p50 = %d: should report the low bucket, not the overflow max", got)
		}
	})

	t.Run("huge q equals max", func(t *testing.T) {
		h := newHistogram(DurationBuckets)
		for i := 1; i <= 1000; i++ {
			h.Observe(int64(i) * int64(time.Microsecond))
		}
		want := h.Max()
		for _, q := range []float64{1, 2, 1e300, math.Inf(1)} {
			if got := h.Quantile(q); got != want {
				t.Errorf("Quantile(%v) = %d, want Max() = %d", q, got, want)
			}
		}
		// And tiny/invalid q reports the lowest occupied bucket bound.
		lo := h.Quantile(0)
		if lo > int64(2*time.Microsecond) {
			t.Errorf("Quantile(0) = %d, want the lowest bucket bound", lo)
		}
		for _, q := range []float64{math.NaN(), -1, math.Inf(-1)} {
			if got := h.Quantile(q); got != lo {
				t.Errorf("Quantile(%v) = %d, want same as Quantile(0) = %d", q, got, lo)
			}
		}
	})

	t.Run("negative observation", func(t *testing.T) {
		h := newHistogram(DurationBuckets)
		h.Observe(-5)
		if got := h.Max(); got != -5 {
			t.Errorf("Max = %d, want -5", got)
		}
		if got := h.Quantile(1.0); got != -5 {
			t.Errorf("Quantile(1.0) = %d, want -5", got)
		}
	})
}

func TestRegistryTextDump(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("exec_rows_scanned").Add(42)
	reg.Histogram("query_ns").ObserveDuration(3 * time.Millisecond)
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"counter exec_rows_scanned", "42",
		"hist    query_ns", "count=1", "max=3ms",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryTextDumpDeterministic: two identically updated registries
// render byte-identical text (map iteration never leaks into output).
func TestRegistryTextDumpDeterministic(t *testing.T) {
	build := func() *Registry {
		reg := NewRegistry()
		for _, name := range []string{"z_last", "a_first", "m_mid", "exec_rows", "exec_batches"} {
			reg.Counter(name).Add(7)
		}
		reg.Histogram("query_ns").Observe(1000)
		reg.Histogram("plan_qerror_x1000").Observe(1500)
		return reg
	}
	var a, b strings.Builder
	if err := build().WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("text dumps differ:\n%s\n---\n%s", a.String(), b.String())
	}
	// Sorted section order: all counters lexicographic, then
	// histograms.
	out := a.String()
	if strings.Index(out, "a_first") > strings.Index(out, "z_last") {
		t.Error("counters not sorted lexicographically")
	}
}
