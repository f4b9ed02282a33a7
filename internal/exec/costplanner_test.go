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
// 99 templates never do there, each with what it must reach as the
// engine plans it: the CSE memo (no template repeats a subquery or a
// CTE body; the "cse" cases repeat both, identically and with one
// literal changed), a star transformation with fact-local and residual
// predicates, and a star over a CTE dimension, whose surrogate keys are
// not its row numbers plus one as in every generated dimension. The
// "rows" cases take the intermediates past the joins through their edges:
// a UNION ALL of promoted and dictionary columns under ORDER BY, LIMIT
// and OFFSET (past the end: "empty"), an empty CTE, a CTE column that is
// NULL in every row, scalar subqueries over no row and one, IN and NOT IN
// subqueries holding NULL, and windows with HAVING over the aggregated
// layout.
var referenceCases = []struct{ reach, text string }{
	{"cse", `SELECT COUNT(*) c FROM item
		WHERE i_current_price > (SELECT AVG(i_current_price) a FROM item WHERE i_category = 'Music')
		AND i_wholesale_cost < (SELECT AVG(i_current_price) a FROM item WHERE i_category = 'Books')
		AND i_wholesale_cost > (SELECT AVG(i_current_price) a FROM item WHERE i_category = 'Music') / 4`},
	{"cse", `SELECT COUNT(*) c FROM item
		WHERE i_current_price > (WITH t AS (SELECT i_current_price p FROM item WHERE i_category = 'Music') SELECT AVG(p) a FROM t)
		AND i_wholesale_cost < (WITH t AS (SELECT i_current_price p FROM item WHERE i_category = 'Books') SELECT AVG(p) a FROM t)
		AND i_wholesale_cost > (WITH t AS (SELECT i_current_price p FROM item WHERE i_category = 'Music') SELECT MIN(p) a FROM t)`},
	{"star", `SELECT ss_ticket_number, ss_quantity, i_item_id, d_date FROM store_sales, item, date_dim
		WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk
		AND d_year IN (1999, 2000, 2001, 2002) AND d_moy IN (11, 12) AND i_category IN ('Music', 'Books', 'Home', 'Sports')
		AND ss_quantity > 20 AND ss_sales_price < i_current_price
		ORDER BY ss_ticket_number, i_item_id`},
	{"star", `WITH dec AS (SELECT d_date_sk, d_date FROM date_dim WHERE d_moy = 12 AND d_year IN (1999, 2000, 2001, 2002))
		SELECT ss_ticket_number, i_item_id, d_date FROM store_sales, item, dec
		WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk AND i_category IN ('Music', 'Books', 'Home', 'Sports')
		ORDER BY ss_ticket_number, i_item_id`},
	{"rows", `SELECT i_category c, i_current_price p FROM item WHERE i_category = 'Music'
		UNION ALL SELECT i_class, i_manager_id FROM item WHERE i_category = 'Books'
		UNION ALL SELECT d_day_name, d_moy FROM date_dim WHERE d_year = 2000 AND d_dom = 1
		ORDER BY p DESC, c LIMIT 25 OFFSET 3`},
	{"empty", `SELECT i_category c, i_current_price p FROM item WHERE i_category = 'Music'
		UNION ALL SELECT i_class, i_manager_id FROM item WHERE i_category = 'Books'
		ORDER BY 2, 1 LIMIT 10 OFFSET 100000`},
	{"rows", `WITH none AS (SELECT i_item_sk k, i_category c, i_current_price p FROM item WHERE i_current_price < 0)
		SELECT i_item_id, c, p, (SELECT COUNT(*) n FROM none) n, (SELECT MAX(c) m FROM none) m
		FROM item LEFT JOIN none ON i_item_sk = k WHERE i_item_sk < 20 ORDER BY i_item_id`},
	{"rows", `WITH blank AS (SELECT i_item_sk k, CASE WHEN i_current_price < 0 THEN i_category END c,
			CASE WHEN i_current_price < 0 THEN i_current_price END p, i_brand b FROM item)
		SELECT c, b, COUNT(*) n, SUM(p) s, MAX(c) m, COUNT(c) cc FROM blank
		WHERE k < 60 AND c IS NULL GROUP BY c, b ORDER BY b`},
	{"rows", `SELECT i_item_id, (SELECT i_current_price p FROM item WHERE i_item_sk = 3) one,
			(SELECT i_current_price p FROM item WHERE i_item_sk < 0) none
		FROM item WHERE i_item_sk < 8
		AND i_current_price > COALESCE((SELECT i_wholesale_cost w FROM item WHERE i_item_sk < 0), 0)
		AND i_current_price <> (SELECT i_current_price p FROM item WHERE i_item_sk = 3)
		ORDER BY i_item_id`},
	{"rows", `SELECT i_item_sk FROM item
		WHERE i_item_sk IN (SELECT CASE WHEN i_item_sk > 5 THEN i_item_sk END k FROM item WHERE i_item_sk < 12)
		ORDER BY i_item_sk`},
	{"rows", `SELECT COUNT(*) n, SUM(CASE WHEN i_item_sk NOT IN (SELECT CASE WHEN i_item_sk > 5 THEN i_item_sk END k FROM item WHERE i_item_sk < 12) IS NULL THEN 1 ELSE 0 END) u
		FROM item WHERE i_item_sk NOT IN (SELECT i_item_sk FROM item WHERE i_item_sk > 5)`},
	{"rows", `SELECT i_category c, i_class k, SUM(i_current_price) s,
			SUM(SUM(i_current_price)) OVER (PARTITION BY i_category) cs, COUNT(*) OVER (PARTITION BY i_category) nk
		FROM item GROUP BY i_category, i_class
		HAVING SUM(i_current_price) * 8 > SUM(SUM(i_current_price)) OVER (PARTITION BY i_category)
		ORDER BY c, s DESC, k`},
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
	for i, c := range referenceCases {
		labels, texts = append(labels, fmt.Sprintf("case %d", i)), append(texts, c.text)
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
	// The cases reach what they are there for, with rows to compare
	// unless the case is there for the empty result.
	for i, c := range referenceCases {
		res, tr, err := planned.QueryTraced(c.text)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("case %d: %d rows", i, len(res.Rows))
		switch {
		case (len(res.Rows) == 0) != (c.reach == "empty"):
			t.Errorf("case %d: %d rows where the case is there for %s", i, len(res.Rows), c.reach)
		case c.reach == "cse" && tr.CSEHits == 0:
			t.Errorf("case %d: no subquery or CTE answered from the CSE memo", i)
		case c.reach == "star" && tr.Strategy != plan.StarTransform:
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

// TestPlanCacheInvalidation: a cached plan serves a repeat of its
// statement while the tables it reads are unchanged, and a change to one
// row of one of them makes the next execution replan, with no call into
// the engine between: the table's epoch is the plan cache's freshness
// rule. The replanned entry replaces the stale one under the same key.
func TestPlanCacheInvalidation(t *testing.T) {
	db := randDB(3, 200, 10)
	eng := New(db)
	const q = `SELECT d_s, COUNT(*) c FROM f, d WHERE f_k = d_k GROUP BY d_s ORDER BY d_s`
	run := func(step string) (hits, misses int64) {
		t.Helper()
		res, err := eng.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := New(db).Query(q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, step, cold, res)
		return eng.PlanCacheStats()
	}
	_, m0 := run("first run")
	h1, m1 := run("unchanged")
	if h1 == 0 || m1 != m0 {
		t.Fatalf("a repeat over unchanged tables did not hit the plan cache: %d hits, %d -> %d misses", h1, m0, m1)
	}
	d := db.Table("d")
	d.SetValue(0, d.Def.ColumnIndex("d_s"), storage.Str("s9"))
	h2, m2 := run("after one row of d changed")
	if h2 != h1 || m2 == m1 {
		t.Fatalf("a change to d did not force a replan: hits %d -> %d, misses %d -> %d", h1, h2, m1, m2)
	}
	h3, m3 := run("repeat after the replan")
	if h3 == h2 || m3 != m2 {
		t.Fatalf("the replanned entry was not served: hits %d -> %d, misses %d -> %d", h2, h3, m2, m3)
	}
	if n := eng.planCache.Len(); n != 1 {
		t.Errorf("plan cache holds %d entries, want the replan to replace the one", n)
	}
}

// TestPlanCacheHitsOverCTE: a block that joins a CTE is planned once
// for its statement shape. Every execution materializes the CTE as a new
// table instance, so the plan cache keeps CTE-backed tables out of the
// versions an entry records; with them in, such a plan never hits.
func TestPlanCacheHitsOverCTE(t *testing.T) {
	eng := New(randDB(3, 200, 10))
	const q = `WITH dd AS (SELECT d_k, d_s FROM d WHERE d_g < 3)
		SELECT d_s, COUNT(*) c FROM f, dd WHERE f_k = d_k GROUP BY d_s ORDER BY d_s`
	if _, err := eng.Query(q); err != nil {
		t.Fatal(err)
	}
	h0, m0 := eng.PlanCacheStats()
	if _, err := eng.Query(q); err != nil {
		t.Fatal(err)
	}
	if h1, m1 := eng.PlanCacheStats(); h1 == h0 || m1 != m0 {
		t.Fatalf("a repeat over a fresh CTE materialization replanned: hits %d -> %d, misses %d -> %d", h0, h1, m0, m1)
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
