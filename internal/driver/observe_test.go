package driver

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"tpcds/internal/obs"
	"tpcds/internal/obs/debugd"
)

// TestBenchmarkSpanTree runs the full benchmark instrumented and checks
// the structural invariants of the recorded span tree: a single
// benchmark root over the Figure 11 phases, one span per query
// execution, no orphans, and every child nested inside its parent's
// interval — down through the engine's operator spans.
func TestBenchmarkSpanTree(t *testing.T) {
	cfg := tinyCfg()
	cfg.Parallelism = 4
	cfg.MorselRows = 32
	cfg.Tracer = obs.NewTracer()
	cfg.Metrics = obs.NewRegistry()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := cfg.Tracer.Snapshot()
	byID := map[uint64]obs.SpanRecord{}
	names := map[string]int{}
	for _, s := range snap {
		byID[s.ID] = s
		names[s.Name]++
	}
	for _, phase := range []string{"benchmark", "load", "query run 1", "maintenance", "query run 2"} {
		if names[phase] != 1 {
			t.Errorf("%d %q spans, want exactly 1", names[phase], phase)
		}
	}
	if names["stream 0"] != 2 || names["stream 1"] != 2 {
		t.Errorf("want each stream span once per query run: %v / %v",
			names["stream 0"], names["stream 1"])
	}
	// One query span per recorded execution.
	queries := 0
	for _, s := range snap {
		if s.Cat == "driver" && strings.HasPrefix(s.Name, "q") && !strings.HasPrefix(s.Name, "query") {
			queries++
		}
	}
	if queries != len(res.Queries) {
		t.Errorf("%d query spans, want %d (one per execution)", queries, len(res.Queries))
	}
	// Engine spans parent under the driver's query spans.
	execSpans := 0
	for _, s := range snap {
		if s.Cat == "exec" {
			execSpans++
		}
	}
	if execSpans == 0 {
		t.Error("no exec-category operator spans below the driver tree")
	}
	// Structural invariants over the whole tree.
	roots := 0
	for _, s := range snap {
		if s.Parent == 0 {
			roots++
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("orphan span %q: parent %d never completed", s.Name, s.Parent)
		}
		if s.StartNs < p.StartNs || s.StartNs+s.DurNs > p.StartNs+p.DurNs {
			t.Errorf("span %q [%d,+%d] escapes parent %q [%d,+%d]",
				s.Name, s.StartNs, s.DurNs, p.Name, p.StartNs, p.DurNs)
		}
	}
	if roots != 1 {
		t.Errorf("%d root spans, want 1 (benchmark)", roots)
	}
	// The trace must export cleanly in Chrome trace_event shape.
	var sb strings.Builder
	if err := obs.WriteChromeTrace(&sb, cfg.Tracer); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace([]byte(sb.String())); err != nil {
		t.Errorf("exported trace invalid: %v", err)
	}
	// The engine counters observed real work.
	if cfg.Metrics.Counter("exec_rows_scanned").Value() == 0 {
		t.Error("exec_rows_scanned stayed 0 across a full benchmark")
	}
	// The report carries the per-template distribution.
	if len(res.Report.Latencies) != len(tinyCfg().QueryIDs) {
		t.Errorf("report has %d template latencies, want %d",
			len(res.Report.Latencies), len(tinyCfg().QueryIDs))
	}
	if !strings.Contains(res.Report.String(), "Per-Template Exec Latency") {
		t.Error("report rendering missing the latency section")
	}
}

// TestQueueWaitSplit pins the wait/exec decomposition: with the
// admission gate narrower than the stream count, queries observably
// queue, and every timing satisfies Duration == Wait + Exec.
func TestQueueWaitSplit(t *testing.T) {
	cfg := tinyCfg()
	cfg.Streams = 3
	cfg.MaxConcurrent = 1
	cfg.Metrics = obs.NewRegistry()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var waited int
	for _, qt := range res.Queries {
		if qt.Duration != qt.Wait+qt.Exec {
			t.Fatalf("q%d: Duration %v != Wait %v + Exec %v",
				qt.QueryID, qt.Duration, qt.Wait, qt.Exec)
		}
		if qt.Wait > 0 {
			waited++
		}
	}
	if waited == 0 {
		t.Error("3 streams through a 1-wide gate never waited")
	}
	if res.Report.QueueWait <= 0 || res.Report.ExecTime <= 0 {
		t.Errorf("report split not populated: wait=%v exec=%v",
			res.Report.QueueWait, res.Report.ExecTime)
	}
	if !strings.Contains(res.Report.String(), "T_Queue / T_Exec") {
		t.Error("report rendering missing the queue/exec line")
	}
}

// TestUninstrumentedRunUnchanged: without Tracer/Metrics the report
// carries no latency section and the per-query timings still
// decompose (gate-less queries never wait).
func TestUninstrumentedRunUnchanged(t *testing.T) {
	cfg := tinyCfg()
	cfg.Streams = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Report.String()
	if strings.Contains(s, "Per-Template Exec Latency") {
		t.Error("uninstrumented report has a latency section")
	}
	for _, qt := range res.Queries {
		if qt.Wait != 0 {
			t.Errorf("q%d waited %v with no admission gate", qt.QueryID, qt.Wait)
		}
		if qt.Duration != qt.Exec {
			t.Errorf("q%d: Duration %v != Exec %v without a gate", qt.QueryID, qt.Duration, qt.Exec)
		}
	}
}

// TestInFlightRegistry covers the in-flight query registry directly:
// admission order, status updates through the obs.QueryStatus side,
// deregistration, and nil-safety of the whole surface.
func TestInFlightRegistry(t *testing.T) {
	inf := NewInFlight()
	a := inf.Begin(1, 0, 42)
	b := inf.Begin(1, 1, 7)
	a.SetPhase("join")
	a.SetRows(128)
	qs := inf.ActiveQueries()
	if len(qs) != 2 {
		t.Fatalf("%d active queries, want 2", len(qs))
	}
	if qs[0].Template != 42 || qs[1].Template != 7 {
		t.Errorf("admission order lost: %+v", qs)
	}
	if qs[0].Phase != "join" || qs[0].Rows != 128 {
		t.Errorf("status not reflected: %+v", qs[0])
	}
	if qs[1].Phase != "queued" {
		t.Errorf("fresh query phase = %q, want queued", qs[1].Phase)
	}
	if qs[0].ElapsedNs < 0 {
		t.Errorf("negative elapsed: %+v", qs[0])
	}
	inf.End(a)
	if qs := inf.ActiveQueries(); len(qs) != 1 || qs[0].Template != 7 {
		t.Errorf("after End: %+v, want only q7", qs)
	}
	inf.End(b)
	if qs := inf.ActiveQueries(); len(qs) != 0 {
		t.Errorf("after both End: %+v, want empty", qs)
	}

	// The nil registry is the disabled path every un-instrumented run
	// takes; all methods must be no-ops.
	var nilInf *InFlight
	st := nilInf.Begin(1, 0, 1)
	if st != nil {
		t.Fatal("nil registry returned a live status handle")
	}
	st.SetPhase("x")
	st.SetRows(1)
	nilInf.End(st)
	if nilInf.ActiveQueries() != nil {
		t.Error("nil registry returned active queries")
	}
}

// TestProfiledRunMisestimates runs the benchmark with Profile on and
// checks the estimate-vs-actual feedback loop end to end: the q-error
// histogram observed every estimated operator, the report carries the
// per-template misestimation table sorted worst-first, and the
// rendering includes it.
func TestProfiledRunMisestimates(t *testing.T) {
	cfg := tinyCfg()
	cfg.Profile = true
	cfg.Metrics = obs.NewRegistry()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Misestimates) == 0 {
		t.Fatal("profiled run produced no misestimation report")
	}
	seen := map[int]bool{}
	for i, m := range res.Report.Misestimates {
		if m.QError < 1 {
			t.Errorf("q%d q-error %v < 1", m.ID, m.QError)
		}
		if m.Nodes <= 0 {
			t.Errorf("q%d estimated-node count %d, want > 0", m.ID, m.Nodes)
		}
		if m.Op == "" {
			t.Errorf("q%d worst operator missing", m.ID)
		}
		if i > 0 && m.QError > res.Report.Misestimates[i-1].QError {
			t.Errorf("misestimates not sorted: %v after %v", m.QError, res.Report.Misestimates[i-1].QError)
		}
		if seen[m.ID] {
			t.Errorf("template q%d listed twice", m.ID)
		}
		seen[m.ID] = true
	}
	for _, id := range cfg.QueryIDs {
		if !seen[id] {
			t.Errorf("template q%d missing from the misestimation report", id)
		}
	}
	h := cfg.Metrics.Histogram(QErrorHistogram)
	if h.Count() == 0 {
		t.Errorf("%s histogram saw no observations", QErrorHistogram)
	}
	if q0 := h.Quantile(0); q0 < 1000 {
		t.Errorf("%s min = %d, want >= 1000 (q-error is clamped >= 1)", QErrorHistogram, q0)
	}
	if !strings.Contains(res.Report.String(), "Worst Misestimates") {
		t.Error("report rendering missing the misestimation section")
	}
	// Determinism across identical runs: same templates, same worst
	// operators, same q-errors (the engine and data are seeded).
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Report.Misestimates) != len(res.Report.Misestimates) {
		t.Fatalf("misestimate count differs across identical runs: %d vs %d",
			len(res.Report.Misestimates), len(res2.Report.Misestimates))
	}
	for i := range res.Report.Misestimates {
		a, b := res.Report.Misestimates[i], res2.Report.Misestimates[i]
		if a != b {
			t.Errorf("misestimate %d differs across identical runs:\n%+v\n%+v", i, a, b)
		}
	}
}

// TestUnprofiledRunHasNoMisestimates: without Profile the report omits
// the section entirely.
func TestUnprofiledRunHasNoMisestimates(t *testing.T) {
	cfg := tinyCfg()
	cfg.Streams = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Misestimates) != 0 {
		t.Errorf("unprofiled run reported misestimates: %+v", res.Report.Misestimates)
	}
	if strings.Contains(res.Report.String(), "Misestimates") {
		t.Error("unprofiled report renders a misestimation section")
	}
}

// TestInFlightDebugdHammer is the 4-stream live-diagnostics race test:
// a profiled, traced benchmark runs with the in-flight registry wired
// into a live debugd server while four client goroutines hammer the
// endpoints for its whole duration. Run under -race this proves the
// registry, tracer ring, metrics, and server share memory safely; the
// final snapshot must be empty (every query deregistered).
func TestInFlightDebugdHammer(t *testing.T) {
	cfg := tinyCfg()
	cfg.Streams = 4
	cfg.QueryIDs = []int{1, 9, 20, 42, 52}
	cfg.Profile = true
	cfg.Tracer = obs.NewTracer()
	cfg.Tracer.SetSpanLimit(256)
	cfg.Metrics = obs.NewRegistry()
	cfg.InFlight = NewInFlight()
	srv, err := debugd.Start(context.Background(), "127.0.0.1:0",
		debugd.Config{Tracer: cfg.Tracer, Metrics: cfg.Metrics, Queries: cfg.InFlight})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()
	// The clients own their transport and keep no connection alive: a
	// pooled connection the transport dialed but never sent a request on
	// sits in StateNew on the server, which http.Server.Shutdown does not
	// treat as idle for 5 s — exactly the deadline below.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

	done := make(chan struct{})
	var wg sync.WaitGroup
	sawActive := make([]bool, 4)
	for i, path := range []string{"/queries", "/metrics", "/spans", "/queries"} {
		wg.Add(1)
		go func(i int, path string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := client.Get(base + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				if cerr := resp.Body.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				if path == "/queries" && strings.Contains(string(body), `"phase"`) {
					sawActive[i] = true
				}
			}
		}(i, path)
	}

	res, err := Run(cfg)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) == 0 {
		t.Fatal("benchmark recorded no queries")
	}
	if qs := cfg.InFlight.ActiveQueries(); len(qs) != 0 {
		t.Errorf("%d queries still registered after the run: %+v", len(qs), qs)
	}
	observed := false
	for _, s := range sawActive {
		observed = observed || s
	}
	if !observed {
		t.Log("note: /queries never caught an in-flight query (run too fast); registry drained correctly")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
