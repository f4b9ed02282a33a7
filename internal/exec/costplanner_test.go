package exec

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tpcds/internal/plan"
	"tpcds/internal/qgen"
	"tpcds/internal/queries"
)

var updateGoldens = flag.Bool("update", false, "rewrite the plan-snapshot golden file")

// TestCostEqualsGreedyAllTemplates is the order-safety differential:
// the cost-based planner — join-order search, plan cache, subquery
// decorrelation, and CSE all active — must produce bit-identical
// results to the greedy baseline for every one of the 99 templates,
// serially and under the morsel executor.
func TestCostEqualsGreedyAllTemplates(t *testing.T) {
	if testing.Short() {
		t.Skip("all-99 planner differential skipped in -short")
	}
	db := templateDB()
	greedy := New(db)
	greedy.SetPlanner(plan.Greedy)
	greedy.SetParallelism(1)
	costSerial := New(db) // cost-based is the default planner
	costSerial.SetParallelism(1)
	costPar := parallelEngine(New(db))
	for _, tpl := range queries.All() {
		text, err := qgen.Instantiate(tpl, qgen.StreamSeed(1, 0, tpl.ID))
		if err != nil {
			t.Fatalf("query %d: %v", tpl.ID, err)
		}
		want, err := greedy.Query(text)
		if err != nil {
			t.Fatalf("query %d greedy: %v", tpl.ID, err)
		}
		got, err := costSerial.Query(text)
		if err != nil {
			t.Fatalf("query %d cost serial: %v", tpl.ID, err)
		}
		assertSameResult(t, fmt.Sprintf("query %d cost serial", tpl.ID), want, got)
		got, err = costPar.Query(text)
		if err != nil {
			t.Fatalf("query %d cost parallel: %v", tpl.ID, err)
		}
		assertSameResult(t, fmt.Sprintf("query %d cost parallel", tpl.ID), want, got)
	}
}

// TestPlanCacheConcurrentStreams hammers one engine's plan cache from
// concurrent query streams (run under -race in CI): results must match
// the serial oracle and the steady-state hit rate must clear the 90%
// the benchmark advertises.
func TestPlanCacheConcurrentStreams(t *testing.T) {
	db := templateDB()
	ids := []int{1, 7, 19, 25, 42, 52, 55, 68, 96, 98}

	texts := make([]string, 0, len(ids))
	for _, id := range ids {
		tpl, err := queries.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		text, err := qgen.Instantiate(tpl, qgen.StreamSeed(1, 0, tpl.ID))
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, text)
	}

	oracle := New(db)
	oracle.SetParallelism(1)
	want := make([]*Result, len(texts))
	for i, q := range texts {
		r, err := oracle.Query(q)
		if err != nil {
			t.Fatalf("query %d oracle: %v", ids[i], err)
		}
		want[i] = r
	}

	eng := parallelEngine(New(db))
	// Warm the cache serially so the concurrent phase measures steady
	// state (cold concurrent streams can all miss the same key at once).
	for i, q := range texts {
		if _, err := eng.Query(q); err != nil {
			t.Fatalf("query %d warmup: %v", ids[i], err)
		}
	}
	const streams, iters = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(stream int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				for i, q := range texts {
					got, err := eng.Query(q)
					if err != nil {
						errs <- fmt.Errorf("stream %d query %d: %w", stream, ids[i], err)
						return
					}
					if !reflect.DeepEqual(want[i].Rows, got.Rows) {
						errs <- fmt.Errorf("stream %d query %d: rows differ from serial oracle", stream, ids[i])
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	hits, misses := eng.PlanCacheStats()
	if hits+misses == 0 {
		t.Fatal("plan cache never consulted")
	}
	if rate := float64(hits) / float64(hits+misses); rate < 0.9 {
		t.Fatalf("plan cache hit rate %.3f (hits %d, misses %d), want >= 0.90", rate, hits, misses)
	}
}

// TestPlanCacheInvalidation: maintenance on a dependency table must
// evict cached plans so the next execution replans against fresh
// statistics.
func TestPlanCacheInvalidation(t *testing.T) {
	db := randDB(3, 200, 10)
	eng := New(db)
	eng.SetParallelism(1)
	const q = `SELECT d_s, COUNT(*) c FROM f, d WHERE f_k = d_k GROUP BY d_s`
	if _, err := eng.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(q); err != nil {
		t.Fatal(err)
	}
	if hits, _ := eng.PlanCacheStats(); hits == 0 {
		t.Fatal("repeated query did not hit the plan cache")
	}
	eng.InvalidateIndexes("d")
	if _, err := eng.Query(q); err != nil {
		t.Fatal(err)
	}
	_, misses := eng.PlanCacheStats()
	if misses < 2 {
		t.Fatalf("invalidation did not force a replan: %d misses", misses)
	}
}

// TestDecorrelationAndCSEObservable checks the rewrites actually fire
// and stay result-neutral: an IN-subquery decorrelates under the cost
// planner, a repeated scalar subquery is answered by the CSE memo, and
// both match the greedy (rewrite-free) execution bit for bit.
func TestDecorrelationAndCSEObservable(t *testing.T) {
	db := randDB(11, 300, 12)
	greedy := New(db)
	greedy.SetPlanner(plan.Greedy)
	greedy.SetParallelism(1)
	cost := New(db)
	cost.SetParallelism(1)

	q := `SELECT f_o FROM f WHERE f_k IN (SELECT d_k FROM d WHERE d_g < 3) ORDER BY f_o`
	want, err := greedy.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, tr, err := cost.QueryTraced(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Decorrelated != 1 {
		t.Fatalf("Decorrelated = %d, want 1\n%s", tr.Decorrelated, tr.String())
	}
	assertSameResult(t, "decorrelated IN", want, got)

	q = `SELECT COUNT(*) c FROM f WHERE f_m > (SELECT AVG(f_m) a FROM f) AND f_v > (SELECT AVG(f_m) a FROM f)`
	want, err = greedy.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, tr, err = cost.QueryTraced(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr.CSEHits != 1 {
		t.Fatalf("CSEHits = %d, want 1\n%s", tr.CSEHits, tr.String())
	}
	assertSameResult(t, "CSE scalar subquery", want, got)
}

// TestPlanSnapshotsAllTemplates locks the cost planner's decisions for
// every template into a golden file: physical strategy, plan source,
// join order, and estimated base cardinality. Any change to the cost
// model, statistics, or search shows up as a reviewable diff
// (regenerate with `go test ./internal/exec -run TestPlanSnapshots -update`).
func TestPlanSnapshotsAllTemplates(t *testing.T) {
	if testing.Short() {
		t.Skip("all-99 plan snapshot skipped in -short")
	}
	db := templateDB()
	eng := New(db)
	eng.SetParallelism(1)
	var sb strings.Builder
	for _, tpl := range queries.All() {
		text, err := qgen.Instantiate(tpl, qgen.StreamSeed(1, 0, tpl.ID))
		if err != nil {
			t.Fatalf("query %d: %v", tpl.ID, err)
		}
		_, tr, err := eng.QueryTraced(text)
		if err != nil {
			t.Fatalf("query %d: %v", tpl.ID, err)
		}
		fmt.Fprintf(&sb, "q%02d strategy=%s source=%s est=%.0f order=%s\n",
			tpl.ID, tr.Strategy, tr.PlanSource, tr.EstBaseRows, strings.Join(tr.JoinOrder, ","))
	}
	got := sb.String()

	golden := filepath.Join("testdata", "plan_snapshots.golden")
	if *updateGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantB, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if string(wantB) != got {
		wl, gl := strings.Split(string(wantB), "\n"), strings.Split(got, "\n")
		for i := 0; i < len(wl) || i < len(gl); i++ {
			w, g := "", ""
			if i < len(wl) {
				w = wl[i]
			}
			if i < len(gl) {
				g = gl[i]
			}
			if w != g {
				t.Errorf("line %d:\n  golden: %s\n  got:    %s", i+1, w, g)
			}
		}
	}
}
