package exec

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"tpcds/internal/datagen"
	"tpcds/internal/obs"
	"tpcds/internal/plan"
	"tpcds/internal/qgen"
	"tpcds/internal/queries"
	"tpcds/internal/storage"
)

// parallelEngine returns an engine forced onto the morsel paths: small
// morsels so development-scale tables split, several workers despite
// the host's core count.
func parallelEngine(e *Engine) *Engine {
	e.SetParallelism(4)
	e.SetMorselSize(32)
	return e
}

// templateDB is the SF 0.0005 seed-7 database of the all-template
// tests, generated once per test binary: every test only reads it.
var templateDB = sync.OnceValue(func() *storage.DB { return datagen.New(0.0005, 7).GenerateAll() })

// assertSameResult fails the test when two results differ in any bit.
func assertSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Columns, got.Columns) {
		t.Fatalf("%s: columns %v vs %v", label, want.Columns, got.Columns)
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s: %d rows vs %d", label, len(want.Rows), len(got.Rows))
	}
	for ri := range want.Rows {
		if !reflect.DeepEqual(want.Rows[ri], got.Rows[ri]) {
			t.Fatalf("%s row %d: %v vs %v", label, ri, want.Rows[ri], got.Rows[ri])
		}
	}
}

// TestParallelEqualsSequential is the serial-equivalence guarantee: all
// 99 query templates, executed serially and with the morsel executor
// over the same database, must produce bit-identical results — same
// columns, same rows, same order, same float bits. The parallel engine
// runs fully instrumented (live tracer span in the context, metrics
// registry installed) to prove observation never alters results.
func TestParallelEqualsSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("all-99 differential sweep skipped in -short; TestQuickParallelEqualsSerial still runs")
	}
	db := templateDB()
	tracer := obs.NewTracer()
	troot := tracer.Root("differential", "test")
	defer troot.End()
	ctx := obs.ContextWithSpan(context.Background(), troot)
	for _, mode := range []plan.Mode{plan.Auto, plan.ForceStar} {
		serial := New(db)
		serial.SetMode(mode)
		serial.SetParallelism(1)
		par := parallelEngine(New(db))
		par.SetMode(mode)
		par.SetMetrics(obs.NewRegistry())
		for _, tpl := range queries.All() {
			text, err := qgen.Instantiate(tpl, qgen.StreamSeed(1, 0, tpl.ID))
			if err != nil {
				t.Fatalf("query %d: %v", tpl.ID, err)
			}
			want, err := serial.Query(text)
			if err != nil {
				t.Fatalf("mode %v query %d serial: %v", mode, tpl.ID, err)
			}
			got, err := par.QueryContext(ctx, text)
			if err != nil {
				t.Fatalf("mode %v query %d parallel: %v", mode, tpl.ID, err)
			}
			if !reflect.DeepEqual(want.Columns, got.Columns) {
				t.Fatalf("mode %v query %d: columns %v vs %v", mode, tpl.ID, want.Columns, got.Columns)
			}
			if len(want.Rows) != len(got.Rows) {
				t.Fatalf("mode %v query %d: %d rows serial vs %d parallel",
					mode, tpl.ID, len(want.Rows), len(got.Rows))
			}
			for ri := range want.Rows {
				if !reflect.DeepEqual(want.Rows[ri], got.Rows[ri]) {
					t.Fatalf("mode %v query %d row %d: %v vs %v",
						mode, tpl.ID, ri, want.Rows[ri], got.Rows[ri])
				}
			}
		}
	}
}

// TestQuickParallelEqualsSerial re-checks serial equivalence on
// randomized databases across the main operator shapes (join+agg, left
// join, distinct).
func TestQuickParallelEqualsSerial(t *testing.T) {
	qs := []string{
		`SELECT d_s, COUNT(*) c, SUM(f_m) m, AVG(f_m) a FROM f, d WHERE f_k = d_k GROUP BY d_s`,
		`SELECT f_o, d_g FROM f LEFT OUTER JOIN d ON f_k = d_k`,
		`SELECT DISTINCT f_v FROM f`,
		`SELECT d_g, SUM(f_m) m FROM f, d WHERE f_k = d_k AND d_g < 3 GROUP BY d_g ORDER BY m DESC`,
	}
	f := func(seed uint64) bool {
		db := randDB(seed, 300, 12)
		serial := New(db)
		serial.SetParallelism(1)
		par := parallelEngine(New(db))
		for _, q := range qs {
			want, err := serial.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := par.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Logf("seed %d query %q: results differ", seed, q)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQueryTracedConcurrentStreams is the regression test for the
// last-writer-wins trace bug: concurrent streams sharing one engine
// must each get the trace of their own query, not whichever stream
// finished last.
func TestQueryTracedConcurrentStreams(t *testing.T) {
	e := parallelEngine(New(miniDB()))
	cases := []struct {
		query   string
		binding string
	}{
		{"SELECT COUNT(*) FROM item", "item"},
		{"SELECT COUNT(*) FROM dates", "dates"},
		{"SELECT COUNT(*) FROM sales", "sales"},
		{"SELECT COUNT(*) FROM returns", "returns"},
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(cases)*20)
	for _, c := range cases {
		for i := 0; i < 5; i++ {
			wg.Add(1)
			go func(query, binding string) {
				defer wg.Done()
				for j := 0; j < 10; j++ {
					_, tr, err := e.QueryTraced(query)
					if err != nil {
						errs <- err
						return
					}
					if len(tr.Tables) != 1 || tr.Tables[0].Binding != binding {
						errs <- fmt.Errorf("query over %s got trace for %+v", binding, tr.Tables)
						return
					}
				}
			}(c.query, c.binding)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTraceRecordsWorkerMorsels checks the EXPLAIN surface of the
// morsel executor: a parallel run reports its worker count and morsel
// distribution; a serial run reports none.
func TestTraceRecordsWorkerMorsels(t *testing.T) {
	db := randDB(3, 2000, 20)
	q := `SELECT d_s, SUM(f_m) m FROM f, d WHERE f_k = d_k GROUP BY d_s`

	par := parallelEngine(New(db))
	_, tr, err := par.QueryTraced(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Parallelism != 4 {
		t.Errorf("trace parallelism = %d, want 4", tr.Parallelism)
	}
	total := 0
	for _, c := range tr.WorkerMorsels {
		total += c
	}
	if len(tr.WorkerMorsels) == 0 || total == 0 {
		t.Errorf("parallel trace has no morsel counts: %v", tr.WorkerMorsels)
	}
	if s := tr.String(); !contains(s, "parallelism:") {
		t.Errorf("trace rendering missing parallelism line:\n%s", s)
	}

	serial := New(db)
	serial.SetParallelism(1)
	_, tr, err = serial.QueryTraced(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.WorkerMorsels) != 0 {
		t.Errorf("serial trace has morsel counts: %v", tr.WorkerMorsels)
	}
	if s := tr.String(); contains(s, "parallelism:") {
		t.Errorf("serial trace rendering has parallelism line:\n%s", s)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestForEachMorselCoversAllRows checks the scheduler invariant: every
// row lands in exactly one morsel and the counts add up.
func TestForEachMorselCoversAllRows(t *testing.T) {
	const n, morsel = 1037, 64
	covered := make([]bool, n) // morsels are disjoint: no locking needed
	counts := forEachMorsel((&Engine{}).newQctx(nil), 4, n, morsel, func(_, _, lo, hi int) {
		for r := lo; r < hi; r++ {
			if covered[r] {
				t.Errorf("row %d visited twice", r)
			}
			covered[r] = true
		}
	})
	for r, ok := range covered {
		if !ok {
			t.Fatalf("row %d never visited", r)
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if want := (n + morsel - 1) / morsel; total != want {
		t.Errorf("morsel counts sum to %d, want %d", total, want)
	}
}

// TestForEachMorselPanicPropagates checks that a worker panic re-raises
// on the coordinating goroutine (where Query's recover turns it into an
// error) instead of crashing the process.
func TestForEachMorselPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("worker panic did not propagate to the caller")
		}
	}()
	forEachMorsel((&Engine{}).newQctx(nil), 4, 1000, 10, func(_, m, _, _ int) {
		if m == 50 {
			panic("boom")
		}
	})
}
