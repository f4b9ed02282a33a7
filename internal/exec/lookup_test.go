package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"tpcds/internal/datagen"
	"tpcds/internal/obs"
	"tpcds/internal/plan"
	"tpcds/internal/qgen"
	"tpcds/internal/queries"
	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

// lookupDB is a fact f (f_k a foreign key into d, f_o numbering its
// rows) and a dimension d with primary key d_k. The keys are 1..dimRows,
// or, when sparse, spread out with gaps (the index's hashed form instead
// of its positional one). A fact key is NULL, dangling (no d row carries
// it) or a real key, drawn with repeats.
func lookupDB(rng *rand.Rand, factRows, dimRows int, sparse bool) *storage.DB {
	db := storage.NewDB()
	d := db.Create(&schema.Table{
		Name: "d", Kind: schema.Dimension,
		Columns: []schema.Column{
			{Name: "d_k", Type: schema.Identifier},
			{Name: "d_g", Type: schema.Integer},
			{Name: "d_h", Type: schema.Integer, Nullable: true},
			{Name: "d_s", Type: schema.Char, Len: 2},
		},
		PrimaryKey: []string{"d_k"},
	})
	key := func(i int) int64 {
		if sparse {
			return int64(7 + 3*i)
		}
		return int64(1 + i)
	}
	for i := 0; i < dimRows; i++ {
		h := storage.Value(storage.Int(int64(rng.Intn(8))))
		if rng.Intn(9) == 0 {
			h = storage.Null
		}
		d.Append([]storage.Value{storage.Int(key(i)), storage.Int(int64(rng.Intn(8))), h, storage.Str(fmt.Sprintf("s%d", rng.Intn(4)))})
	}
	f := db.Create(&schema.Table{
		Name: "f", Kind: schema.Fact,
		Columns: []schema.Column{
			{Name: "f_k", Type: schema.Identifier, Nullable: true},
			{Name: "f_o", Type: schema.Identifier},
		},
		PrimaryKey: []string{"f_o"},
	})
	hot := rng.Intn(dimRows) // a key many fact rows share
	for i := 0; i < factRows; i++ {
		var k storage.Value
		switch r := rng.Intn(10); {
		case r == 0:
			k = storage.Null
		case r == 1:
			k = storage.Int(key(dimRows) + int64(rng.Intn(50))) // past the last key
		case r == 2 && sparse:
			k = storage.Int(key(rng.Intn(dimRows)) + 1) // in a gap
		case r == 3:
			k = storage.Int(key(hot))
		default:
			k = storage.Int(key(rng.Intn(dimRows)))
		}
		f.Append([]storage.Value{k, storage.Int(int64(i))})
	}
	return db
}

// dimPreds are local predicates on d: kernel-compiled ones, one the
// kernel compiler leaves to row-at-a-time evaluation (column minus
// column), and ones keeping none or every row.
var dimPreds = []string{
	"d_g < 3",
	"d_s = 's1'",
	"d_g IN (1, 4, 6)",
	"(d_g - d_h) > 1",
	"d_g < 0",
	"d_g >= 0",
}

// TestLookupJoinEqualsHashJoin is a metamorphic identity that needs no
// switch inside the engine: a query over the base dimension d, which the
// executor may join by index lookup, must return exactly — rows and
// order — what the same query returns over WITH dd AS (SELECT * FROM d),
// which is never lookup-eligible (a CTE is not the catalog's table) and
// is joined by build + probe or stream. Random NULL, dangling and
// repeated foreign keys, positional and hashed key indexes, zero, some
// and all survivors, kernel and row-at-a-time predicates, inner and LEFT
// joins, on two fresh engines per database.
func TestLookupJoinEqualsHashJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	lookups := 0
	for round := 0; round < 12; round++ {
		factRows, dimRows := 20+rng.Intn(300), 200+rng.Intn(2000)
		if round%4 == 3 { // joined rows past a batch edge
			factRows += 2 * batchLen
		}
		db := lookupDB(rng, factRows, dimRows, round%2 == 1)
		for pass := 0; pass < 2; pass++ {
			e := New(db)
			e.SetProfiling(true)
			e.SetMode([]plan.Mode{plan.Auto, plan.ForceHashJoin}[round%3/2])
			for q := 0; q < 8; q++ {
				var conj []string
				for _, p := range dimPreds {
					if rng.Intn(3) == 0 {
						conj = append(conj, p)
					}
				}
				where := ""
				if len(conj) > 0 {
					where = " AND " + strings.Join(conj, " AND ")
				}
				var query string
				if rng.Intn(3) == 0 {
					// WHERE conjuncts on d filter its rows before the outer join;
					// an ON conjunct decides which matches join.
					on := " AND " + dimPreds[rng.Intn(len(dimPreds))]
					query = `SELECT f_o, d_k, d_g, d_s FROM f LEFT OUTER JOIN %s ON f_k = d_k` + on + ` WHERE f_o >= 0` + where
				} else {
					query = `SELECT f_o, d_k, d_g, d_s FROM f, %s WHERE f_k = d_k` + where
				}
				label := fmt.Sprintf("round %d pass %d: %s", round, pass, query)
				got, tr, err := e.QueryTraced(fmt.Sprintf(query, "d"))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want, err := e.Query(`WITH dd AS (SELECT * FROM d) ` + fmt.Sprintf(query, "dd d"))
				if err != nil {
					t.Fatalf("%s (CTE): %v", label, err)
				}
				assertSameResult(t, label, want, got)
				// An index lookup probes d with no build or stream of it.
				steps := map[string]bool{}
				tr.Profile.Walk(func(n *obs.OpProfile) { steps[n.Name] = true })
				if (steps["probe d"] || steps["left d"]) && !steps["build d"] && !steps["stream d"] {
					lookups++
				}
			}
		}
	}
	if lookups == 0 {
		t.Fatal("no query joined d by index lookup")
	}
}

// TestLookupJoinShape: q10 joins customer_demographics (1.92 M rows at
// every scale factor) to an intermediate of a few hundred rows. The join
// is one probe of the engine's key index per intermediate row — no
// stream of the dimension, no scan, no build.
func TestLookupJoinShape(t *testing.T) {
	if testing.Short() {
		t.Skip("generates customer_demographics")
	}
	e := New(datagen.New(0.01, 1).GenerateAll())
	e.SetProfiling(true)
	e.WarmHashIndex("customer_demographics", "cd_demo_sk")
	tpl, err := queries.ByID(10)
	if err != nil {
		t.Fatal(err)
	}
	text, err := qgen.Instantiate(tpl, qgen.StreamSeed(1, 0, tpl.ID))
	if err != nil {
		t.Fatal(err)
	}
	_, tr, err := e.QueryTraced(text)
	if err != nil {
		t.Fatal(err)
	}
	var probes []*obs.OpProfile
	tr.Profile.Walk(func(n *obs.OpProfile) {
		switch n.Name {
		case "probe customer_demographics":
			probes = append(probes, n)
		case "stream customer_demographics", "scan customer_demographics", "build customer_demographics":
			t.Errorf("q10 ran %q\n%s", n.Name, tr.Profile)
		}
	})
	if len(probes) != 1 || probes[0].RowsIn == 0 || probes[0].RowsIn*4 > 1_920_800 {
		t.Fatalf("q10: want one probe of customer_demographics from a small intermediate\n%s", tr.Profile)
	}
	line := regexp.MustCompile(fmt.Sprintf(`(?m)^\s*probe customer_demographics\s+time=\S+ rows_in=%d `, probes[0].RowsIn))
	if !line.MatchString(tr.Profile.String()) {
		t.Errorf("EXPLAIN ANALYZE does not show the probe and its input\n%s", tr.Profile)
	}
}

// TestCrossJoinGrowsAsItEmits: a 3,000 × 3,000 cross join cancelled at
// its first cancellation point returns the context's error having
// allocated a sliver of the 72 MB its pairs would take, not all of it.
func TestCrossJoinGrowsAsItEmits(t *testing.T) {
	db := storage.NewDB()
	for _, name := range []string{"a", "b"} {
		tab := db.Create(&schema.Table{Name: name, Kind: schema.Dimension,
			Columns: []schema.Column{{Name: name + "_k", Type: schema.Identifier}}, PrimaryKey: []string{name + "_k"}})
		for i := 0; i < 3000; i++ {
			tab.Append([]storage.Value{storage.Int(int64(i))})
		}
	}
	e := New(db)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.SetQueryHook(func(string) { cancel() })
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := e.QueryContext(ctx, `SELECT COUNT(*) FROM a, b`)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
		t.Errorf("cancelled cross join allocated %d bytes", grew)
	}
}

// BenchmarkLookupJoin joins an unfiltered fact of dimRows/ratio rows to
// a filtered dimension (one survivor in 16, kernel predicates) of 64 K
// and 1 M rows. Whether each ratio runs as an index lookup or as scan +
// build + probe follows lookupRowsPerProbe; setting it to 0 (always
// lookup) and to 1<<30 (never) and running both gives the crossover the
// constant is chosen from (DESIGN.md, "The hash pipeline"). The second,
// unfiltered reference to d is too large a dimension for a star, which
// ends the star decision before it counts d's survivors.
func BenchmarkLookupJoin(b *testing.B) {
	ratios := []int{1, 2, 4, 8, 16, 64}
	for _, dimRows := range []int{1 << 16, 1 << 20} {
		rng := rand.New(rand.NewSource(1))
		db := lookupDB(rng, 0, dimRows, false)
		for _, ratio := range ratios {
			def := *db.Table("f").Def
			def.Name = fmt.Sprintf("f%d", ratio)
			f := db.Create(&def)
			for i := 0; i < dimRows/ratio; i++ {
				f.Append([]storage.Value{storage.Int(int64(1 + rng.Intn(dimRows))), storage.Int(int64(i))})
			}
		}
		e := New(db)
		e.SetMode(plan.ForceHashJoin)
		e.WarmHashIndex("d", "d_k")
		for _, ratio := range ratios {
			q := fmt.Sprintf(`SELECT COUNT(*) FROM f%d, d, d d2 WHERE f_k = d.d_k AND f_o = d2.d_k AND d.d_g < 4 AND d.d_s = 's1'`, ratio)
			b.Run(fmt.Sprintf("dim=%d/ratio=%d", dimRows, ratio), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := e.Query(q); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(dimRows/ratio), "ns/fact-row")
			})
		}
	}
}
