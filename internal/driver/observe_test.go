package driver

import (
	"strings"
	"testing"

	"tpcds/internal/obs"
)

// TestBenchmarkSpanTree runs the full benchmark instrumented and checks
// the structural invariants of the recorded span tree: a single
// benchmark root over the Figure 11 phases, one span per query
// execution, no orphans, and every child nested inside its parent's
// interval — down through the engine's operator spans.
func TestBenchmarkSpanTree(t *testing.T) {
	cfg := tinyCfg()
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

// TestProfiledRunMisestimates runs the benchmark with Profile on and
// checks the estimate-vs-actual feedback loop end to end: the q-error
// histogram observed every estimated operator, the report carries the
// per-template misestimation table sorted worst-first, and the
// rendering includes it. The "4 streams traced" case turns every
// post-run surface on at once (profile tree, tracer, metrics) across
// four concurrent streams; under -race it is the check that they share
// memory safely.
func TestProfiledRunMisestimates(t *testing.T) {
	traced := tinyCfg()
	traced.Streams = 4
	traced.QueryIDs = []int{1, 9, 20, 42, 52}
	traced.Tracer = obs.NewTracer()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"2 streams", tinyCfg()}, {"4 streams traced", traced}} {
		t.Run(tc.name, func(t *testing.T) { checkProfiledRun(t, tc.cfg) })
	}
}

func checkProfiledRun(t *testing.T, cfg Config) {
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
	if cfg.Tracer != nil && cfg.Tracer.Len() == 0 {
		t.Error("traced profiled run recorded no spans")
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
