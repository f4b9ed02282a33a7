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
	"tpcds/internal/storage"
)

var updateGoldens = flag.Bool("update", false, "rewrite the plan-snapshot golden file")

// referenceEngine returns an engine in the rewrite-free reference
// configuration production is held to: the greedy join order, no
// decorrelation, no CSE memo, no join-order search or plan cache, and
// hash joins only; serial.
func referenceEngine(db *storage.DB) *Engine {
	e := New(db)
	e.reference = true
	return e
}

// referenceCases are statements over templateDB that reach what the
// 99 templates never do there: the CSE memo (no template repeats a
// subquery or a CTE body; these repeat both, identically and with one
// literal changed), a star transformation with fact-local and residual
// predicates, and a star over a CTE dimension, whose surrogate keys are
// not its row numbers plus one as in every generated dimension.
var referenceCases = []string{
	`SELECT COUNT(*) c FROM item
		WHERE i_current_price > (SELECT AVG(i_current_price) a FROM item WHERE i_category = 'Music')
		AND i_wholesale_cost < (SELECT AVG(i_current_price) a FROM item WHERE i_category = 'Books')
		AND i_wholesale_cost > (SELECT AVG(i_current_price) a FROM item WHERE i_category = 'Music') / 4`,
	`SELECT COUNT(*) c FROM item
		WHERE i_current_price > (WITH t AS (SELECT i_current_price p FROM item WHERE i_category = 'Music') SELECT AVG(p) a FROM t)
		AND i_wholesale_cost < (WITH t AS (SELECT i_current_price p FROM item WHERE i_category = 'Books') SELECT AVG(p) a FROM t)
		AND i_wholesale_cost > (WITH t AS (SELECT i_current_price p FROM item WHERE i_category = 'Music') SELECT MIN(p) a FROM t)`,
	`SELECT ss_ticket_number, ss_quantity, i_item_id, d_date FROM store_sales, item, date_dim
		WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk
		AND d_year IN (1999, 2000, 2001, 2002) AND d_moy IN (11, 12) AND i_category IN ('Music', 'Books', 'Home', 'Sports')
		AND ss_quantity > 20 AND ss_sales_price < i_current_price
		ORDER BY ss_ticket_number, i_item_id`,
	`WITH dec AS (SELECT d_date_sk, d_date FROM date_dim WHERE d_moy = 12 AND d_year IN (1999, 2000, 2001, 2002))
		SELECT ss_ticket_number, i_item_id, d_date FROM store_sales, item, dec
		WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk AND i_category IN ('Music', 'Books', 'Home', 'Sports')
		ORDER BY ss_ticket_number, i_item_id`,
}

// TestPlannedEqualsReferenceAllTemplates is the order-safety
// differential: production planning — join-order search, plan cache,
// subquery decorrelation, CSE and the cost model's star choice — must
// produce bit-identical results to the reference for every one of the
// 99 templates and referenceCases, both as the engine plans them and
// with the star transformation forced wherever the shape permits.
func TestPlannedEqualsReferenceAllTemplates(t *testing.T) {
	if testing.Short() {
		t.Skip("all-99 planner differential skipped in -short")
	}
	db := templateDB()
	ref := referenceEngine(db)
	planned := New(db)
	star := New(db)
	star.SetMode(plan.ForceStar)
	var labels, texts []string
	for _, tpl := range queries.All() {
		text, err := qgen.Instantiate(tpl, qgen.StreamSeed(1, 0, tpl.ID))
		if err != nil {
			t.Fatalf("query %d: %v", tpl.ID, err)
		}
		labels, texts = append(labels, fmt.Sprintf("query %d", tpl.ID)), append(texts, text)
	}
	for i, text := range referenceCases {
		labels, texts = append(labels, fmt.Sprintf("case %d", i)), append(texts, text)
	}
	for i, text := range texts {
		want, err := ref.Query(text)
		if err != nil {
			t.Fatalf("%s reference: %v", labels[i], err)
		}
		for _, c := range []struct {
			name string
			eng  *Engine
		}{{"planned", planned}, {"force-star", star}} {
			got, err := c.eng.Query(text)
			if err != nil {
				t.Fatalf("%s %s: %v", labels[i], c.name, err)
			}
			assertSameResult(t, labels[i]+" "+c.name, want, got)
		}
	}
	// The cases reach what they are there for, with rows to compare.
	for i, text := range referenceCases {
		res, tr, err := planned.QueryTraced(text)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case len(res.Rows) == 0:
			t.Errorf("case %d: an empty result proves nothing", i)
		case i < 2 && tr.CSEHits == 0:
			t.Errorf("case %d: no subquery or CTE answered from the CSE memo", i)
		case i >= 2 && tr.Strategy != plan.StarTransform:
			t.Errorf("case %d: ran as %v, not as a star", i, tr.Strategy)
		}
	}
}

// BenchmarkStarVsHashAllTemplates is the §2.1 ablation: one pass over
// the 99 templates on templateDB per iteration, under the production
// Auto choice and with either strategy forced through SetMode. Every
// engine is warmed by one untimed pass (indexes, statistics, plans).
// EXPERIMENTS.md records the same comparison at SF 0.01 and 0.1.
func BenchmarkStarVsHashAllTemplates(b *testing.B) {
	var texts []string
	for _, tpl := range queries.All() {
		text, err := qgen.Instantiate(tpl, qgen.StreamSeed(1, 0, tpl.ID))
		if err != nil {
			b.Fatalf("query %d: %v", tpl.ID, err)
		}
		texts = append(texts, text)
	}
	for _, mode := range []plan.Mode{plan.Auto, plan.ForceHashJoin, plan.ForceStar} {
		b.Run(mode.String(), func(b *testing.B) {
			e := New(templateDB())
			e.SetMode(mode)
			pass := func() {
				for _, text := range texts {
					if _, err := e.Query(text); err != nil {
						b.Fatal(err)
					}
				}
			}
			pass()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
		})
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
	want := make([]*Result, len(texts))
	for i, q := range texts {
		r, err := oracle.Query(q)
		if err != nil {
			t.Fatalf("query %d oracle: %v", ids[i], err)
		}
		want[i] = r
	}

	eng := New(db)
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
// and stay result-neutral: an IN-subquery decorrelates, a repeated
// scalar subquery is answered by the CSE memo, and both match the
// rewrite-free reference bit for bit.
func TestDecorrelationAndCSEObservable(t *testing.T) {
	db := randDB(11, 300, 12)
	ref := referenceEngine(db)
	cost := New(db)

	q := `SELECT f_o FROM f WHERE f_k IN (SELECT d_k FROM d WHERE d_g < 3) ORDER BY f_o`
	want, err := ref.Query(q)
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
	want, err = ref.Query(q)
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
