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
// free" contract on the query hot path: with no tracer in the context,
// profiling off and no registry on the engine, the operator and counter
// helpers the executor calls per operator and per batch, and the
// query's exit, must not allocate.
func TestDisabledObservabilityAllocatesNothing(t *testing.T) {
	e := New(miniDB())
	qc := e.newQctx(context.Background())
	if qc.prof != nil || qc.profiling() {
		t.Fatal("an unobserved query should not build an operator tree")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		qc.startOp("scan", "store_sales")
		qc.opRowsIn(4096)
		qc.batches++
		qc.pcur.AddBatches(1)
		qc.growScratch(1 << 20)
		qc.shrinkScratch(1 << 20)
		qc.opRowsOut(4096)
		qc.endOp()
		qc.rowsScanned += 4096
		qc.buildRows += 512
		qc.observe(e.metrics)
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

// TestProfileMirrorsSpans pins the one-record contract: the trace's
// exec spans are the profile tree published at the query's end, so for
// any query they have the tree's names and parent edges, in order, each
// span's interval is its node's wall time and nests in its parent's,
// and every span carries its node's rows_in and rows_out — the sort's
// included.
func TestProfileMirrorsSpans(t *testing.T) {
	db := randDB(5, 2000, 16)
	e := New(db)
	e.SetProfiling(true)
	for _, q := range []string{
		`SELECT d_s, COUNT(*) c, SUM(f_m) m FROM f, d WHERE f_k = d_k GROUP BY d_s ORDER BY m DESC`,
		`SELECT DISTINCT f_v FROM f`,
		`SELECT f_o, d_g FROM f LEFT OUTER JOIN d ON f_k = d_k`,
		`SELECT f_o FROM f WHERE f_v IN (SELECT d_g FROM d WHERE d_s = 's1') ORDER BY f_o LIMIT 5`,
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

		// Children of each span in start order (the snapshot's order).
		var rootRec obs.SpanRecord
		kids := map[uint64][]obs.SpanRecord{}
		for _, s := range tracer.Snapshot() {
			if s.Parent == 0 {
				rootRec = s
				continue
			}
			kids[s.Parent] = append(kids[s.Parent], s)
		}
		var match func(p *obs.OpProfile, sp obs.SpanRecord, path string)
		match = func(p *obs.OpProfile, sp obs.SpanRecord, path string) {
			got := kids[sp.ID]
			if len(got) != len(p.Children) {
				t.Errorf("%s: %s has %d exec spans, %d profile children", q, path, len(got), len(p.Children))
				return
			}
			for i, c := range p.Children {
				s, at := got[i], path+"/"+c.Name
				if s.Name != c.Name || s.Cat != "exec" || s.TID != sp.TID {
					t.Errorf("%s: %s: span %q cat %q tid %d", q, at, s.Name, s.Cat, s.TID)
				}
				if s.DurNs != c.WallNs {
					t.Errorf("%s: %s: span lasts %dns, node %dns", q, at, s.DurNs, c.WallNs)
				}
				if s.StartNs < sp.StartNs || s.StartNs+s.DurNs > sp.StartNs+sp.DurNs {
					t.Errorf("%s: %s escapes its parent", q, at)
				}
				want := []obs.Attr{{Key: "rows_in", Val: c.RowsIn}, {Key: "rows_out", Val: c.RowsOut}}
				if !reflect.DeepEqual(s.Attrs, want) {
					t.Errorf("%s: %s: span attrs %v, want %v", q, at, s.Attrs, want)
				}
				match(c, s, at)
			}
		}
		match(tr.Profile, rootRec, "query")
		if strings.Contains(q, "ORDER BY") {
			var sorted bool
			tr.Profile.Walk(func(n *obs.OpProfile) { sorted = sorted || n.Name == "sort" && n.RowsOut > 0 })
			if !sorted {
				t.Errorf("%s: no sort node with rows_out", q)
			}
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

// TestAggregateAndProjectRecordRows: the aggregate and project nodes
// record the joined rows they take in and the result rows they give
// out, as every other operator node does.
func TestAggregateAndProjectRecordRows(t *testing.T) {
	e := New(randDB(5, 2000, 16))
	e.SetProfiling(true)
	count := func(q string) int64 {
		res, err := e.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res.Rows[0][0].I
	}
	joined, filtered := count(`SELECT COUNT(*) FROM f, d WHERE f_k = d_k`), count(`SELECT COUNT(*) FROM f WHERE f_v > 10`)
	for _, c := range []struct {
		op, q string
		in    int64
	}{
		{"aggregate", `SELECT d_s, COUNT(*) c FROM f, d WHERE f_k = d_k GROUP BY d_s`, joined},
		{"project", `SELECT f_o FROM f WHERE f_v > 10 ORDER BY f_o LIMIT 5`, filtered},
	} {
		res, tr, err := e.QueryTracedContext(context.Background(), c.q)
		if err != nil || tr.Profile == nil {
			t.Fatalf("%s: err %v, profile %v", c.q, err, tr.Profile)
		}
		var nodes []*obs.OpProfile
		tr.Profile.Walk(func(n *obs.OpProfile) {
			if n.Name == c.op {
				nodes = append(nodes, n)
			}
		})
		if len(nodes) != 1 || nodes[0].RowsIn != c.in || nodes[0].RowsOut != int64(len(res.Rows)) || c.in == 0 {
			for _, n := range nodes {
				t.Logf("%s: rows_in=%d rows_out=%d", n.Name, n.RowsIn, n.RowsOut)
			}
			t.Errorf("%s: want one %s node with rows_in=%d rows_out=%d", c.q, c.op, c.in, len(res.Rows))
		}
	}
}

// TestFailedQueryCounted: a query that fails after reading its table
// still adds what it did to the engine counters, and publishes the
// operators it finished.
func TestFailedQueryCounted(t *testing.T) {
	e := New(randDB(3, 2000, 16))
	reg := obs.NewRegistry()
	e.SetMetrics(reg)
	tracer := obs.NewTracer()
	root := tracer.Root("q", "driver")
	ctx := obs.ContextWithSpan(context.Background(), root)
	// ORDER BY binds after the join phase has filtered f.
	_, err := e.QueryContext(ctx, `SELECT f_o FROM f WHERE f_v > 10 ORDER BY nosuch`)
	root.End()
	if err == nil {
		t.Fatal("query over an unknown ORDER BY column succeeded")
	}
	if got := reg.Counter("exec_rows_scanned").Value(); got < 2000 {
		t.Errorf("exec_rows_scanned = %d after a failed query, want >= 2000", got)
	}
	scans := 0
	for _, s := range tracer.Snapshot() {
		if s.Cat == "exec" && strings.HasPrefix(s.Name, "scan ") {
			scans++
		}
	}
	if scans == 0 {
		t.Error("a failed query published no scan span")
	}
}

// TestProfiledEqualsUnprofiled is the EXPLAIN ANALYZE bit-identity
// sweep: all 99 templates, unprofiled (the oracle) vs profiled over the
// same database, must produce identical results — per-operator accounting never alters
// what the query returns. Every profiled trace must carry a profile.
func TestProfiledEqualsUnprofiled(t *testing.T) {
	if testing.Short() {
		t.Skip("all-99 profiled differential skipped in -short")
	}
	db := templateDB()
	oracle := New(db)
	prof := New(db)
	prof.SetProfiling(true)
	ctx := context.Background()
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
	}
}
