package debugd

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tpcds/internal/obs"
)

// fakeQueries is a static QuerySource standing in for the driver's
// in-flight registry.
type fakeQueries struct{ qs []obs.ActiveQuery }

func (f fakeQueries) ActiveQueries() []obs.ActiveQuery { return f.qs }

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	code, body, err := fetch(http.DefaultClient, url)
	if err != nil {
		t.Fatal(err)
	}
	return code, body
}

// fetch is get without the testing.T, for client goroutines (which may
// not call t.Fatal).
func fetch(c *http.Client, url string) (int, string, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, "", fmt.Errorf("GET %s: %w", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, "", fmt.Errorf("read %s: %w", url, err)
	}
	return resp.StatusCode, string(body), nil
}

// TestEndpoints starts a fully wired server on a free port and checks
// every mounted endpoint serves its documented shape.
func TestEndpoints(t *testing.T) {
	tracer := obs.NewTracer()
	sp := tracer.Root("bench", "driver")
	sp.Child("q1").End()
	sp.End()
	reg := obs.NewRegistry()
	reg.Counter("exec_rows_scanned").Add(123)
	reg.Histogram("query_ns").Observe(5000)
	qs := fakeQueries{qs: []obs.ActiveQuery{
		{ID: 1, Run: 1, Stream: 0, Template: 42, Phase: "join", Rows: 10, ElapsedNs: 999},
	}}
	srv, err := Start(context.Background(), "127.0.0.1:0", Config{Tracer: tracer, Metrics: reg, Queries: qs})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	base := "http://" + srv.Addr()

	if code, body := get(t, base+"/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("index: code %d body %q", code, body)
	}
	if code, body := get(t, base+"/metrics"); code != 200 || !strings.Contains(body, "exec_rows_scanned") {
		t.Errorf("/metrics: code %d body %q", code, body)
	}
	code, body := get(t, base+"/queries")
	if code != 200 {
		t.Fatalf("/queries: code %d", code)
	}
	var active []obs.ActiveQuery
	if err := json.Unmarshal([]byte(body), &active); err != nil {
		t.Fatalf("/queries not a JSON array: %v\n%s", err, body)
	}
	if len(active) != 1 || active[0].Template != 42 || active[0].Phase != "join" {
		t.Errorf("/queries = %+v, want the one in-flight q42 in phase join", active)
	}
	if code, body := get(t, base+"/spans"); code != 200 || !strings.Contains(body, `"name":"q1"`) {
		t.Errorf("/spans: code %d body %q", code, body)
	}
	if code, body := get(t, base+"/spans?format=chrome"); code != 200 {
		t.Errorf("/spans?format=chrome: code %d", code)
	} else if err := obs.ValidateChromeTrace([]byte(body)); err != nil {
		t.Errorf("/spans?format=chrome invalid: %v", err)
	}
	if code, body := get(t, base+"/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: code %d", code)
	}
	if code, _ := get(t, base+"/nope"); code != 404 {
		t.Errorf("unknown path: code %d, want 404", code)
	}
}

// TestNilConfigServesEmpty: an unwired server answers every endpoint
// with an empty document instead of crashing.
func TestNilConfigServesEmpty(t *testing.T) {
	srv, err := Start(context.Background(), "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	base := "http://" + srv.Addr()
	if code, _ := get(t, base+"/metrics"); code != 200 {
		t.Errorf("/metrics with nil registry: code %d", code)
	}
	code, body := get(t, base+"/queries")
	if code != 200 || strings.TrimSpace(body) != "[]" {
		t.Errorf("/queries with nil source: code %d body %q, want []", code, body)
	}
	if code, body := get(t, base+"/spans"); code != 200 || strings.TrimSpace(body) != "" {
		t.Errorf("/spans with nil tracer: code %d body %q, want empty", code, body)
	}
}

// TestConcurrentClientsAndShutdown hammers the server from 4 client
// goroutines (the ISSUE's 4-stream shape) while spans and counters are
// still being recorded, then shuts down and verifies no goroutine
// leaked — the serve goroutine and every handler joined.
func TestConcurrentClientsAndShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	tracer := obs.NewTracer()
	tracer.SetSpanLimit(64)
	reg := obs.NewRegistry()
	srv, err := Start(context.Background(), "127.0.0.1:0", Config{Tracer: tracer, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()
	// The clients own their transport and keep no connection alive: a
	// pooled connection the transport dialed but never sent a request on
	// sits in StateNew on the server, which http.Server.Shutdown does not
	// treat as idle for 5 s — exactly the deadline below.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

	var wg sync.WaitGroup
	paths := []string{"/metrics", "/queries", "/spans", "/spans?format=chrome"}
	wg.Add(len(paths) + 1)
	// A writer keeps the instruments hot while clients read them.
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			tracer.Root(fmt.Sprintf("s%d", i), "test").End()
			reg.Counter("hot").Add(1)
			reg.Histogram("h").Observe(int64(i))
		}
	}()
	for _, p := range paths {
		go func(path string) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if code, _, err := fetch(client, base+path); err != nil || code != 200 {
					t.Errorf("GET %s: code %d, err %v", path, code, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Connection goroutines unwind asynchronously; poll briefly rather
	// than flake.
	client.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew %d -> %d across server lifetime", before, after)
	}
}

// TestStartErrorOnBadAddr: an unbindable address fails fast with no
// server left behind.
func TestStartErrorOnBadAddr(t *testing.T) {
	if _, err := Start(context.Background(), "256.256.256.256:1", Config{}); err == nil {
		t.Fatal("Start on an invalid address succeeded")
	}
}
