package exec

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tpcds/internal/obs"
	"tpcds/internal/sql"
)

func mustParse(t *testing.T, q string) *sql.SelectStmt {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

// TestQueryContextExpiredDeadline: a query started under an already
// expired deadline fails with context.DeadlineExceeded, observable
// through errors.Is despite the query-context wrapping.
func TestQueryContextExpiredDeadline(t *testing.T) {
	e := New(miniDB())
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := e.QueryContext(ctx, `SELECT COUNT(*) FROM sales`)
	if res != nil {
		t.Fatal("cancelled query returned a result")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestQueryContextDeadlineMidQuery: the deadline fires while the query
// is in flight (the hook holds the query until the context is done, so
// the expiry is deterministic, not a timing race).
func TestQueryContextDeadlineMidQuery(t *testing.T) {
	e := New(miniDB())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	e.SetQueryHook(func(string) { <-ctx.Done() })
	_, err := e.QueryContext(ctx, `SELECT COUNT(*) FROM sales`)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// The engine stays usable after a cancelled query.
	e.SetQueryHook(nil)
	if _, err := e.Query(`SELECT COUNT(*) FROM sales`); err != nil {
		t.Fatalf("engine broken after cancellation: %v", err)
	}
}

// TestNoGoroutineLeakAfterTimeout runs queries under tiny deadlines —
// cancelling mid-scan, mid-join, mid-aggregate — and then asserts the
// goroutine count settles back to the baseline: a cancelled query
// leaves nothing running.
func TestNoGoroutineLeakAfterTimeout(t *testing.T) {
	db := randDB(11, 5000, 24)
	e := New(db)
	// Instrumentation on: cancellation unwinds through live operator
	// spans, which must not change how the query unwinds.
	e.SetMetrics(obs.NewRegistry())
	tracer := obs.NewTracer()
	troot := tracer.Root("leaktest", "test")
	defer troot.End()
	q := `SELECT d_s, COUNT(*) c, SUM(f_m) m, AVG(f_m) a FROM f, d WHERE f_k = d_k GROUP BY d_s ORDER BY m DESC`
	before := runtime.NumGoroutine()
	for i := 0; i < 25; i++ {
		ctx, cancel := context.WithTimeout(obs.ContextWithSpan(context.Background(), troot),
			time.Duration(i%5)*100*time.Microsecond)
		_, err := e.QueryContext(ctx, q)
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			t.Fatalf("query %d: unexpected error %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestInjectedPanicBecomesError: a panic raised inside the query scope
// (via the fault-injection hook) surfaces as an error naming the query,
// and the engine keeps serving.
func TestInjectedPanicBecomesError(t *testing.T) {
	e := New(miniDB())
	e.SetQueryHook(func(q string) {
		if strings.Contains(q, "returns") {
			panic("injected storage fault")
		}
	})
	defer e.SetQueryHook(nil)
	res, err := e.Query(`SELECT COUNT(*) FROM returns`)
	if res != nil || err == nil {
		t.Fatalf("injected panic: res=%v err=%v", res, err)
	}
	for _, want := range []string{"injected storage fault", "internal error", "returns"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	if r, err := e.Query(`SELECT COUNT(*) FROM item`); err != nil || len(r.Rows) != 1 {
		t.Fatalf("engine broken after injected panic: %v", err)
	}
}

// TestInjectedPanicSparesSiblingStreams: concurrent streams share the
// engine; the stream hitting the fault gets an error while every other
// stream's queries keep succeeding.
func TestInjectedPanicSparesSiblingStreams(t *testing.T) {
	e := New(miniDB())
	e.SetQueryHook(func(q string) {
		if strings.Contains(q, "returns") {
			panic("injected fault")
		}
	})
	defer e.SetQueryHook(nil)
	queries := []string{
		`SELECT COUNT(*) FROM item`,
		`SELECT COUNT(*) FROM dates`,
		`SELECT COUNT(*) FROM sales`,
		`SELECT COUNT(*) FROM returns`, // the faulting stream
	}
	var wg sync.WaitGroup
	errs := make([]error, len(queries))
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q string) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, err := e.Query(q); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, q)
	}
	wg.Wait()
	for i, err := range errs {
		faulting := strings.Contains(queries[i], "returns")
		if faulting && err == nil {
			t.Errorf("faulting stream reported no error")
		}
		if !faulting && err != nil {
			t.Errorf("sibling stream %q failed: %v", queries[i], err)
		}
	}
}

// TestRunContextCancelled covers the pre-parsed statement entry point.
func TestRunContextCancelled(t *testing.T) {
	e := New(miniDB())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stmt := mustParse(t, `SELECT COUNT(*) FROM sales`)
	if _, err := e.RunContext(ctx, stmt); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunContextRunsQueryHook: the hook runs for pre-parsed statements
// too, inside the same recover scope, so its panic is that query's
// error.
func TestRunContextRunsQueryHook(t *testing.T) {
	e := New(miniDB())
	e.SetQueryHook(func(string) { panic("injected run fault") })
	defer e.SetQueryHook(nil)
	stmt := mustParse(t, `SELECT COUNT(*) FROM sales`)
	res, err := e.RunContext(context.Background(), stmt)
	if res != nil || err == nil || !strings.Contains(err.Error(), "injected run fault") {
		t.Fatalf("RunContext under a panicking hook: res=%v err=%v", res, err)
	}
	e.SetQueryHook(nil)
	if res, err := e.RunContext(context.Background(), stmt); err != nil || len(res.Rows) != 1 {
		t.Fatalf("engine broken after injected panic: %v", err)
	}
}
