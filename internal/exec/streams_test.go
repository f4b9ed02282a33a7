package exec

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"tpcds/internal/datagen"
	"tpcds/internal/obs"
	"tpcds/internal/qgen"
	"tpcds/internal/queries"
	"tpcds/internal/storage"
)

// templateDB is the SF 0.0005 seed-7 database of the all-template
// tests, generated once per test binary: every test only reads it.
var templateDB = sync.OnceValue(func() *storage.DB { return datagen.New(0.0005, 7).GenerateAll() })

// resultDiff describes the first difference between two results in any
// bit, or returns "" when they are identical.
func resultDiff(want, got *Result) string {
	if !reflect.DeepEqual(want.Columns, got.Columns) {
		return fmt.Sprintf("columns %v vs %v", want.Columns, got.Columns)
	}
	if len(want.Rows) != len(got.Rows) {
		return fmt.Sprintf("%d rows vs %d", len(want.Rows), len(got.Rows))
	}
	for ri := range want.Rows {
		if !reflect.DeepEqual(want.Rows[ri], got.Rows[ri]) {
			return fmt.Sprintf("row %d: %v vs %v", ri, want.Rows[ri], got.Rows[ri])
		}
	}
	return ""
}

// assertSameResult fails the test when two results differ in any bit.
func assertSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if d := resultDiff(want, got); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
}

// TestColdEngineStreamsEqualSerial is the engine's concurrency check.
// Four streams share one fresh engine over templateDB, each running the
// 99 templates in its own order, and every result must equal a serial
// engine's bit for bit. The engine starts cold, so the streams race to
// build and publish the hash, value and fact indexes, the column
// statistics and the cached plans — the only state concurrent queries
// share. The shared engine runs fully instrumented (a live tracer span
// in every stream's context, a metrics registry installed) to prove
// observation never alters results. CI runs it under -race.
func TestColdEngineStreamsEqualSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("all-99 cross-stream sweep skipped in -short")
	}
	const streams = 4
	db := templateDB()
	tpls := queries.All()
	texts, want := make([]string, len(tpls)), make([]*Result, len(tpls))
	serial := New(db)
	for i, tpl := range tpls {
		text, err := qgen.Instantiate(tpl, qgen.StreamSeed(1, 0, tpl.ID))
		if err != nil {
			t.Fatalf("query %d: %v", tpl.ID, err)
		}
		if want[i], err = serial.Query(text); err != nil {
			t.Fatalf("query %d serial: %v", tpl.ID, err)
		}
		texts[i] = text
	}
	shared := New(db)
	shared.SetMetrics(obs.NewRegistry())
	root := obs.NewTracer().Root("streams", "test")
	defer root.End()
	errs := make([][]string, streams)
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sp := root.ChildTID(fmt.Sprintf("stream %d", s), s+1)
			defer sp.End()
			ctx := obs.ContextWithSpan(context.Background(), sp)
			for _, i := range rand.New(rand.NewSource(int64(s) + 7)).Perm(len(tpls)) {
				got, err := shared.QueryContext(ctx, texts[i])
				if err != nil {
					errs[s] = append(errs[s], fmt.Sprintf("stream %d query %d: %v", s, tpls[i].ID, err))
				} else if d := resultDiff(want[i], got); d != "" {
					errs[s] = append(errs[s], fmt.Sprintf("stream %d query %d: %s", s, tpls[i].ID, d))
				}
			}
		}(s)
	}
	wg.Wait()
	for _, e := range errs {
		for _, msg := range e {
			t.Error(msg)
		}
	}
}

// TestQueryTracedConcurrentStreams is the regression test for the
// last-writer-wins trace bug: concurrent streams sharing one engine
// must each get the trace of their own query, not whichever stream
// finished last.
func TestQueryTracedConcurrentStreams(t *testing.T) {
	e := New(miniDB())
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
