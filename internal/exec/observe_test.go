package exec

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tpcds/internal/obs"
	"tpcds/internal/qgen"
	"tpcds/internal/queries"
)

// TestDisabledObservabilityAllocatesNothing pins the "disabled means
// free" contract on the query hot path: with no tracer in the context
// and no registry on the engine, the span and metric helpers the
// executor calls per operator and per batch must not allocate.
func TestDisabledObservabilityAllocatesNothing(t *testing.T) {
	e := New(miniDB())
	qc := e.newQctx(context.Background())
	if qc.qspan != nil || qc.em != nil {
		t.Fatal("plain context should produce a disabled qctx")
	}
	if qc.prof != nil {
		t.Fatal("engine without SetProfiling(true) should not build a profile tree")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sp := qc.startOp("scan", "store_sales")
		qc.opRowsIn(sp, 4096)
		qc.opEst(4096)
		qc.countBatch()
		qc.growScratch(1 << 20)
		qc.shrinkScratch(1 << 20)
		qc.opRowsOut(sp, 4096)
		qc.endOp(sp)
		qc.countScan(4096)
		qc.countBuild(512)
	})
	if allocs != 0 {
		t.Fatalf("disabled observability allocates %v per run, want 0", allocs)
	}
	if p := qc.profile(); p != nil {
		t.Fatal("disabled profile path produced a snapshot")
	}
}

// TestQuerySpansCoverOperators runs one instrumented join+aggregate
// query and checks the executor emitted the expected operator span
// shapes under the query span, and that the engine counters saw the
// work.
func TestQuerySpansCoverOperators(t *testing.T) {
	db := randDB(3, 2000, 16)
	e := New(db)
	reg := obs.NewRegistry()
	e.SetMetrics(reg)
	tracer := obs.NewTracer()
	root := tracer.Root("q", "driver")
	ctx := obs.ContextWithSpan(context.Background(), root)
	res, err := e.QueryContext(ctx,
		`SELECT d_s, COUNT(*) c, SUM(f_m) m FROM f, d WHERE f_k = d_k GROUP BY d_s ORDER BY m DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("query returned no rows; test database too small")
	}
	root.End()

	names := map[string]int{}
	byID := map[uint64]obs.SpanRecord{}
	snap := tracer.Snapshot()
	for _, s := range snap {
		byID[s.ID] = s
		key := s.Name
		if i := strings.IndexByte(key, ' '); i >= 0 {
			key = key[:i]
		}
		names[key]++
	}
	for _, want := range []string{"bind", "join", "scan", "aggregate"} {
		if names[want] == 0 {
			t.Errorf("no %q span recorded (got %v)", want, names)
		}
	}
	// Structural invariants: every non-root span has a recorded parent
	// and nests inside its interval.
	for _, s := range snap {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %q has unrecorded parent %d", s.Name, s.Parent)
		}
		if s.StartNs < p.StartNs || s.StartNs+s.DurNs > p.StartNs+p.DurNs {
			t.Errorf("span %q escapes parent %q", s.Name, p.Name)
		}
	}
	if got := reg.Counter("exec_rows_scanned").Value(); got < 2000 {
		t.Errorf("exec_rows_scanned = %d, want >= the fact cardinality", got)
	}
	if got := reg.Counter("exec_hash_build_rows").Value(); got == 0 {
		t.Errorf("exec_hash_build_rows = 0, want > 0 for a hash join")
	}
}

// TestProfileMirrorsSpans pins the structural contract behind EXPLAIN
// ANALYZE: startOp pushes a span and a profile node from the same call
// with the same name, so for any query the profile tree must have
// exactly the operator spans' names with the same parent edges.
func TestProfileMirrorsSpans(t *testing.T) {
	db := randDB(5, 2000, 16)
	e := New(db)
	e.SetProfiling(true)
	for _, q := range []string{
		`SELECT d_s, COUNT(*) c, SUM(f_m) m FROM f, d WHERE f_k = d_k GROUP BY d_s ORDER BY m DESC`,
		`SELECT DISTINCT f_v FROM f`,
		`SELECT f_o, d_g FROM f LEFT OUTER JOIN d ON f_k = d_k`,
	} {
		tracer := obs.NewTracer()
		root := tracer.Root("q", "driver")
		ctx := obs.ContextWithSpan(context.Background(), root)
		res, tr, err := e.QueryTracedContext(ctx, q)
		root.End()
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s: no rows", q)
		}
		if tr.Profile == nil {
			t.Fatalf("%s: profiling on but trace has no profile", q)
		}

		// Edge multiset from the spans: operator name -> parent operator
		// name ("query" when the parent is the query span itself).
		snap := tracer.Snapshot()
		byID := map[uint64]obs.SpanRecord{}
		for _, s := range snap {
			byID[s.ID] = s
		}
		spanEdges := map[string]int{}
		for _, s := range snap {
			if s.Cat != "exec" {
				continue
			}
			parent := "query"
			if p, ok := byID[s.Parent]; ok && p.Cat == "exec" {
				parent = p.Name
			}
			spanEdges[s.Name+" <- "+parent]++
		}
		profEdges := map[string]int{}
		var walk func(p *obs.OpProfile, parent string)
		walk = func(p *obs.OpProfile, parent string) {
			profEdges[p.Name+" <- "+parent]++
			for _, c := range p.Children {
				walk(c, p.Name)
			}
		}
		for _, c := range tr.Profile.Children {
			walk(c, "query")
		}
		if !reflect.DeepEqual(spanEdges, profEdges) {
			t.Errorf("%s:\nspan edges    %v\nprofile edges %v", q, spanEdges, profEdges)
		}
		// Accounting sanity on the snapshot: the root saw wall time and
		// some node carries the scanned rows.
		if tr.Profile.WallNs <= 0 {
			t.Errorf("%s: profile root wall = %d", q, tr.Profile.WallNs)
		}
		var sawRows bool
		tr.Profile.Walk(func(n *obs.OpProfile) { sawRows = sawRows || n.RowsOut > 0 })
		if !sawRows {
			t.Errorf("%s: no profile node recorded rows_out", q)
		}
	}
}

// TestProfiledEqualsUnprofiled is the EXPLAIN ANALYZE bit-identity
// sweep: all 99 templates, unprofiled (the oracle) vs profiled over the
// same database, must produce identical results — per-operator accounting never alters
// what the query returns. Every profiled trace must carry a profile
// with estimate feedback on at least one join node.
func TestProfiledEqualsUnprofiled(t *testing.T) {
	if testing.Short() {
		t.Skip("all-99 profiled differential skipped in -short")
	}
	db := templateDB()
	oracle := New(db)
	prof := New(db)
	prof.SetProfiling(true)
	ctx := context.Background()
	sawEst := false
	for _, tpl := range queries.All() {
		text, err := qgen.Instantiate(tpl, qgen.StreamSeed(1, 0, tpl.ID))
		if err != nil {
			t.Fatalf("query %d: %v", tpl.ID, err)
		}
		want, err := oracle.Query(text)
		if err != nil {
			t.Fatalf("query %d oracle: %v", tpl.ID, err)
		}
		got, tr, err := prof.QueryTracedContext(ctx, text)
		if err != nil {
			t.Fatalf("query %d profiled: %v", tpl.ID, err)
		}
		assertSameResult(t, fmt.Sprintf("query %d under profiling", tpl.ID), want, got)
		if tr.Profile == nil {
			t.Fatalf("query %d: no profile in trace", tpl.ID)
		}
		tr.Profile.Walk(func(n *obs.OpProfile) { sawEst = sawEst || n.HasEst })
	}
	if !sawEst {
		t.Error("no profile node in the whole sweep carried a cardinality estimate")
	}
}
