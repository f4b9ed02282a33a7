package exec

import (
	"math"
	"slices"
	"strings"
	"testing"

	"tpcds/internal/datagen"
	"tpcds/internal/obs"
	"tpcds/internal/plan"
	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

// miniDB builds a small star: fact(sales) + dims(item, dates) chosen so
// results are hand-checkable.
func miniDB() *storage.DB {
	db := storage.NewDB()

	item := &schema.Table{
		Name: "item", Kind: schema.Dimension,
		Columns: []schema.Column{
			{Name: "i_item_sk", Type: schema.Identifier},
			{Name: "i_brand", Type: schema.Char, Len: 20},
			{Name: "i_price", Type: schema.Decimal},
			{Name: "i_category", Type: schema.Char, Len: 20},
		},
		PrimaryKey: []string{"i_item_sk"},
	}
	it := db.Create(item)
	it.Append([]storage.Value{storage.Int(1), storage.Str("acme"), storage.Float(10), storage.Str("Books")})
	it.Append([]storage.Value{storage.Int(2), storage.Str("acme"), storage.Float(20), storage.Str("Home")})
	it.Append([]storage.Value{storage.Int(3), storage.Str("zeta"), storage.Float(30), storage.Str("Books")})
	it.Append([]storage.Value{storage.Int(4), storage.Str("zeta"), storage.Float(40), storage.Str("Sports")})

	dates := &schema.Table{
		Name: "dates", Kind: schema.Dimension,
		Columns: []schema.Column{
			{Name: "d_date_sk", Type: schema.Identifier},
			{Name: "d_year", Type: schema.Integer},
			{Name: "d_moy", Type: schema.Integer},
			{Name: "d_date", Type: schema.Date},
		},
		PrimaryKey: []string{"d_date_sk"},
	}
	dt := db.Create(dates)
	day := func(y, m, d int) int64 { return storage.DaysFromYMD(y, m, d) }
	dt.Append([]storage.Value{storage.Int(1), storage.Int(2000), storage.Int(1), storage.DateV(day(2000, 1, 15))})
	dt.Append([]storage.Value{storage.Int(2), storage.Int(2000), storage.Int(11), storage.DateV(day(2000, 11, 15))})
	dt.Append([]storage.Value{storage.Int(3), storage.Int(2001), storage.Int(11), storage.DateV(day(2001, 11, 15))})

	sales := &schema.Table{
		Name: "sales", Kind: schema.Fact,
		Columns: []schema.Column{
			{Name: "s_date_sk", Type: schema.Identifier, Nullable: true},
			{Name: "s_item_sk", Type: schema.Identifier},
			{Name: "s_qty", Type: schema.Integer},
			{Name: "s_price", Type: schema.Decimal},
			{Name: "s_ticket", Type: schema.Identifier},
		},
		PrimaryKey: []string{"s_item_sk", "s_ticket"},
		ForeignKeys: []schema.ForeignKey{
			{Column: "s_date_sk", Ref: "dates"},
			{Column: "s_item_sk", Ref: "item"},
		},
	}
	s := db.Create(sales)
	add := func(date, item, qty int64, price float64, ticket int64) {
		var dv storage.Value
		if date == 0 {
			dv = storage.Null
		} else {
			dv = storage.Int(date)
		}
		s.Append([]storage.Value{dv, storage.Int(item), storage.Int(qty), storage.Float(price), storage.Int(ticket)})
	}
	add(1, 1, 2, 10, 100) // Jan 2000, acme Books
	add(1, 2, 1, 20, 100) // Jan 2000, acme Home
	add(2, 1, 3, 10, 101) // Nov 2000, acme Books
	add(2, 3, 1, 30, 101) // Nov 2000, zeta Books
	add(3, 4, 5, 40, 102) // Nov 2001, zeta Sports
	add(0, 2, 1, 20, 103) // unknown date (NULL fk)

	returns := &schema.Table{
		Name: "returns", Kind: schema.Fact,
		Columns: []schema.Column{
			{Name: "r_item_sk", Type: schema.Identifier},
			{Name: "r_ticket", Type: schema.Identifier},
			{Name: "r_qty", Type: schema.Integer},
		},
		PrimaryKey: []string{"r_item_sk", "r_ticket"},
	}
	r := db.Create(returns)
	r.Append([]storage.Value{storage.Int(1), storage.Int(100), storage.Int(1)})
	r.Append([]storage.Value{storage.Int(4), storage.Int(102), storage.Int(2)})
	return db
}

func q(t *testing.T, e *Engine, query string) *Result {
	t.Helper()
	res, err := e.Query(query)
	if err != nil {
		t.Fatalf("Query(%s): %v", query, err)
	}
	return res
}

func TestSimpleScanAndFilter(t *testing.T) {
	e := New(miniDB())
	res := q(t, e, `SELECT i_brand, i_price FROM item WHERE i_price > 15 ORDER BY i_price`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	if res.Rows[0][0].S != "acme" || res.Rows[0][1].AsFloat() != 20 {
		t.Errorf("first row = %v", res.Rows[0])
	}
	if res.Columns[0] != "i_brand" {
		t.Errorf("column name = %s", res.Columns[0])
	}
}

func TestSelectStar(t *testing.T) {
	e := New(miniDB())
	res := q(t, e, `SELECT * FROM dates ORDER BY d_date_sk`)
	if len(res.Columns) != 4 || len(res.Rows) != 3 {
		t.Fatalf("star select shape %dx%d", len(res.Rows), len(res.Columns))
	}
}

func TestJoinTwoTables(t *testing.T) {
	e := New(miniDB())
	res := q(t, e, `SELECT s_qty, i_brand FROM sales, item
		WHERE s_item_sk = i_item_sk AND i_brand = 'zeta' ORDER BY s_qty`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	if res.Rows[0][0].AsInt() != 1 || res.Rows[1][0].AsInt() != 5 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestThreeWayJoinAggregation(t *testing.T) {
	e := New(miniDB())
	// Query 52 shape: revenue by brand for Nov 2000.
	res := q(t, e, `SELECT d_year, i_brand, SUM(s_qty * s_price) ext_price
		FROM dates, sales, item
		WHERE d_date_sk = s_date_sk AND s_item_sk = i_item_sk
		  AND d_moy = 11 AND d_year = 2000
		GROUP BY d_year, i_brand
		ORDER BY ext_price DESC`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (acme, zeta)", len(res.Rows))
	}
	// acme: 3*10=30; zeta: 1*30=30 -> tie broken stably; verify sums.
	total := res.Rows[0][2].AsFloat() + res.Rows[1][2].AsFloat()
	if total != 60 {
		t.Errorf("total revenue = %v, want 60", total)
	}
}

// TestStarEqualsHash: the two physical strategies must return identical
// results — the core optimizer-correctness invariant of §2.1.
func TestStarEqualsHash(t *testing.T) {
	query := `SELECT i_brand, SUM(s_qty) total
		FROM sales, item, dates
		WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk AND d_moy = 11
		GROUP BY i_brand ORDER BY i_brand`
	eHash := New(miniDB())
	eHash.SetMode(plan.ForceHashJoin)
	hashRes := q(t, eHash, query)

	eStar := New(miniDB())
	eStar.SetMode(plan.ForceStar)
	starRes, tr, err := eStar.QueryTraced(query)
	if err != nil {
		t.Fatal(err)
	}

	if len(hashRes.Rows) != len(starRes.Rows) {
		t.Fatalf("hash %d rows vs star %d rows", len(hashRes.Rows), len(starRes.Rows))
	}
	for i := range hashRes.Rows {
		for j := range hashRes.Rows[i] {
			if !storage.Equal(hashRes.Rows[i][j], starRes.Rows[i][j]) {
				t.Errorf("row %d col %d: hash %v star %v", i, j,
					hashRes.Rows[i][j], starRes.Rows[i][j])
			}
		}
	}
	if tr.Decision.Strategy != plan.StarTransform {
		t.Errorf("star engine decided %v", tr.Decision)
	}
}

// TestStarScratchCharged: the star node's scratch peak covers what it
// holds at once after the fact fetch — the merged fact bitmap and
// its scratch (two filtered dimensions), the qualifying id list, the
// row-major tuples and the per-table id vectors.
func TestStarScratchCharged(t *testing.T) {
	e := New(templateDB())
	e.SetProfiling(true)
	_, tr, err := e.QueryTraced(`SELECT cs_order_number, i_item_id, d_date FROM catalog_sales, item, date_dim
		WHERE cs_item_sk = i_item_sk AND cs_sold_date_sk = d_date_sk AND d_year = 2000 AND d_moy = 12
		AND i_category IN ('Music', 'Books', 'Home')`)
	if err != nil {
		t.Fatal(err)
	}
	var star *obs.OpProfile
	tr.Profile.Walk(func(n *obs.OpProfile) {
		if n.Name == "star catalog_sales" {
			star = n
		}
	})
	if star == nil || star.RowsOut == 0 {
		t.Fatalf("no star node with rows\n%s", tr.Profile)
	}
	bitmap := int64(e.DB().Table("catalog_sales").NumRows()+63) / 64 * 8
	// ids ≥ rows out; tuples and vectors: 3 ids a row each.
	if want := 2*bitmap + 4*star.RowsOut + 2*3*4*star.RowsOut; star.ScratchBytes < want {
		t.Errorf("star scratch %d bytes, want ≥ %d (2 bitmaps of %d bytes, %d rows out)", star.ScratchBytes, want, bitmap, star.RowsOut)
	}
}

func TestNullFKNeverJoins(t *testing.T) {
	e := New(miniDB())
	res := q(t, e, `SELECT COUNT(*) c FROM sales, dates WHERE s_date_sk = d_date_sk`)
	if res.Rows[0][0].AsInt() != 5 {
		t.Errorf("joined rows = %v, want 5 (NULL date row excluded)", res.Rows[0][0])
	}
}

// TestStarNullFKMatchingKeyPayload: a NULL foreign key stores 0 as its
// payload, so a dimension whose surviving keys include 0 must still not
// join the fact's NULL rows under the star transformation.
func TestStarNullFKMatchingKeyPayload(t *testing.T) {
	db := storage.NewDB()
	dim := db.Create(&schema.Table{
		Name: "z", Kind: schema.Dimension, PrimaryKey: []string{"z_k"},
		Columns: []schema.Column{{Name: "z_k", Type: schema.Identifier}, {Name: "z_g", Type: schema.Integer}},
	})
	for _, r := range [][2]int64{{0, 1}, {1, 1}, {2, 2}} {
		dim.Append([]storage.Value{storage.Int(r[0]), storage.Int(r[1])})
	}
	fact := db.Create(&schema.Table{
		Name: "zf", Kind: schema.Fact,
		Columns: []schema.Column{{Name: "zf_k", Type: schema.Identifier, Nullable: true}, {Name: "zf_m", Type: schema.Integer}},
	})
	fact.Append([]storage.Value{storage.Int(0), storage.Int(10)})
	fact.Append([]storage.Value{storage.Null, storage.Int(20)})
	fact.Append([]storage.Value{storage.Int(1), storage.Int(30)})
	fact.Append([]storage.Value{storage.Int(2), storage.Int(40)})
	e := New(db)
	e.SetMode(plan.ForceStar)
	res, tr, err := e.QueryTraced(`SELECT COUNT(*) c, SUM(zf_m) m FROM zf, z WHERE zf_k = z_k AND z_g = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Strategy != plan.StarTransform {
		t.Fatalf("ran %v, not the star transformation", tr.Strategy)
	}
	if c, m := res.Rows[0][0].AsInt(), res.Rows[0][1].AsInt(); c != 2 || m != 40 {
		t.Errorf("count %d sum %d, want 2 and 40 (the NULL row excluded)", c, m)
	}
}

func TestLeftJoin(t *testing.T) {
	e := New(miniDB())
	res := q(t, e, `SELECT s_ticket, r_qty FROM sales LEFT OUTER JOIN returns
		ON s_item_sk = r_item_sk AND s_ticket = r_ticket
		ORDER BY s_ticket, s_item_sk`)
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (all sales kept)", len(res.Rows))
	}
	matched := 0
	for _, row := range res.Rows {
		if !row[1].IsNull() {
			matched++
		}
	}
	if matched != 2 {
		t.Errorf("matched returns = %d, want 2", matched)
	}
}

func TestGroupByHaving(t *testing.T) {
	e := New(miniDB())
	res := q(t, e, `SELECT i_brand, COUNT(*) c FROM sales, item
		WHERE s_item_sk = i_item_sk GROUP BY i_brand HAVING COUNT(*) > 2 ORDER BY i_brand`)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "acme" || res.Rows[0][1].AsInt() != 4 {
		t.Fatalf("having result = %+v", res.Rows)
	}
}

func TestAggregatesAllKinds(t *testing.T) {
	e := New(miniDB())
	res := q(t, e, `SELECT COUNT(*) n, COUNT(s_date_sk) nd, SUM(s_qty) sq,
		AVG(s_price) ap, MIN(s_price) mn, MAX(s_price) mx,
		COUNT(DISTINCT s_ticket) dt, STDDEV_SAMP(s_qty) sd
		FROM sales`)
	row := res.Rows[0]
	if row[0].AsInt() != 6 || row[1].AsInt() != 5 {
		t.Errorf("counts = %v, %v", row[0], row[1])
	}
	if row[2].AsInt() != 13 {
		t.Errorf("sum qty = %v, want 13", row[2])
	}
	if row[4].AsFloat() != 10 || row[5].AsFloat() != 40 {
		t.Errorf("min/max = %v/%v", row[4], row[5])
	}
	if row[6].AsInt() != 4 {
		t.Errorf("distinct tickets = %v, want 4", row[6])
	}
	if row[7].IsNull() {
		t.Error("stddev should be non-null")
	}
}

func TestEmptyGroupAggregates(t *testing.T) {
	e := New(miniDB())
	res := q(t, e, `SELECT COUNT(*) c, SUM(s_qty) s FROM sales WHERE s_qty > 1000`)
	if len(res.Rows) != 1 {
		t.Fatalf("global aggregate over empty input must return one row")
	}
	if res.Rows[0][0].AsInt() != 0 {
		t.Errorf("COUNT over empty = %v, want 0", res.Rows[0][0])
	}
	if !res.Rows[0][1].IsNull() {
		t.Errorf("SUM over empty = %v, want NULL", res.Rows[0][1])
	}
}

func TestWindowFunction(t *testing.T) {
	e := New(miniDB())
	// Query 20 shape: per-category revenue ratio within the category.
	res := q(t, e, `SELECT i_category, i_brand, SUM(s_qty * s_price) rev,
		SUM(s_qty * s_price) * 100 / SUM(SUM(s_qty * s_price)) OVER (PARTITION BY i_category) ratio
		FROM sales, item WHERE s_item_sk = i_item_sk
		GROUP BY i_category, i_brand ORDER BY i_category, i_brand`)
	// Ratios within each category must sum to ~100.
	sums := map[string]float64{}
	for _, row := range res.Rows {
		sums[row[0].S] += row[3].AsFloat()
	}
	for cat, total := range sums {
		if total < 99.99 || total > 100.01 {
			t.Errorf("category %s ratios sum to %v, want 100", cat, total)
		}
	}
	// Books: acme rev = 2*10+3*10 = 50, zeta = 30 -> 62.5 / 37.5.
	for _, row := range res.Rows {
		if row[0].S == "Books" && row[1].S == "acme" {
			if r := row[3].AsFloat(); r < 62.4 || r > 62.6 {
				t.Errorf("acme Books ratio = %v, want 62.5", r)
			}
		}
	}
}

func TestDistinct(t *testing.T) {
	e := New(miniDB())
	res := q(t, e, `SELECT DISTINCT i_brand FROM item ORDER BY i_brand`)
	if len(res.Rows) != 2 {
		t.Fatalf("distinct brands = %d, want 2", len(res.Rows))
	}
}

func TestOrderByOrdinalAndAlias(t *testing.T) {
	e := New(miniDB())
	byAlias := q(t, e, `SELECT i_brand b, i_price p FROM item ORDER BY p DESC LIMIT 1`)
	if byAlias.Rows[0][1].AsFloat() != 40 {
		t.Errorf("order by alias: %v", byAlias.Rows[0])
	}
	byOrdinal := q(t, e, `SELECT i_brand, i_price FROM item ORDER BY 2 DESC LIMIT 1`)
	if byOrdinal.Rows[0][1].AsFloat() != 40 {
		t.Errorf("order by ordinal: %v", byOrdinal.Rows[0])
	}
}

func TestLimit(t *testing.T) {
	e := New(miniDB())
	res := q(t, e, `SELECT i_item_sk FROM item ORDER BY i_item_sk LIMIT 2`)
	if len(res.Rows) != 2 || res.Rows[1][0].AsInt() != 2 {
		t.Errorf("limit result = %+v", res.Rows)
	}
}

func TestInListAndBetween(t *testing.T) {
	e := New(miniDB())
	res := q(t, e, `SELECT COUNT(*) c FROM item WHERE i_category IN ('Books', 'Sports')
		AND i_price BETWEEN 10 AND 35`)
	if res.Rows[0][0].AsInt() != 2 {
		t.Errorf("count = %v, want 2 (items 1 and 3)", res.Rows[0][0])
	}
}

// TestCaseTypedByPromotion: a CASE, like a COALESCE, is typed by
// numeric promotion across its results, so a SUM over one whose first
// branch is an integer and whose ELSE is a decimal sums the decimals (it
// was typed by its first branch, summed as integers, and dropped them),
// and date - date is a day count, not a date.
func TestCaseTypedByPromotion(t *testing.T) {
	if testing.Short() {
		t.Skip("generates an SF 0.002 database")
	}
	db := datagen.New(0.002, 7).GenerateAll()
	e := New(db)
	res := q(t, e, `SELECT SUM(CASE WHEN ss_quantity > 50 THEN 1 ELSE ss_net_paid END), SUM(COALESCE(ss_net_paid, 1)) FROM store_sales`)
	ss := db.Table("store_sales")
	qty, paid := ss.Def.ColumnIndex("ss_quantity"), ss.Def.ColumnIndex("ss_net_paid")
	var caseSum, coalesceSum float64 // folded in row order, as the engine folds
	for r := 0; r < ss.NumRows(); r++ {
		qv, pv := ss.Get(r, qty), ss.Get(r, paid)
		switch {
		case !qv.IsNull() && qv.I > 50:
			caseSum++
		case !pv.IsNull():
			caseSum += pv.F
		}
		if pv.IsNull() {
			coalesceSum++
		} else {
			coalesceSum += pv.F
		}
	}
	for i, want := range []storage.Value{storage.Float(caseSum), storage.Float(coalesceSum)} {
		if got := res.Rows[0][i]; !sameValue(got, want) {
			t.Errorf("column %d: %v, want %v", i, got, want)
		}
	}
	// Through a CTE, whose columns take the expressions' types.
	res = q(t, e, `WITH x AS (SELECT d_date - d_date n, d_date + 1 a, 1 + d_date b, d_date - 1 c FROM date_dim)
		SELECT SUM(n), MAX(a), MAX(b), MAX(c) FROM x`)
	for i, k := range []storage.Kind{storage.KindInt, storage.KindDate, storage.KindDate, storage.KindDate} {
		if got := res.Rows[0][i]; got.K != k {
			t.Errorf("date arithmetic column %d is a %v, want a %v", i, got.K, k)
		}
	}
}

func TestLikeAndCase(t *testing.T) {
	e := New(miniDB())
	res := q(t, e, `SELECT i_brand,
		CASE WHEN i_price >= 30 THEN 'high' WHEN i_price >= 20 THEN 'mid' ELSE 'low' END tier
		FROM item WHERE i_brand LIKE 'ac%' ORDER BY i_price`)
	if len(res.Rows) != 2 {
		t.Fatalf("LIKE matched %d rows", len(res.Rows))
	}
	if res.Rows[0][1].S != "low" || res.Rows[1][1].S != "mid" {
		t.Errorf("case tiers = %v", res.Rows)
	}
}

func TestInSubquery(t *testing.T) {
	e := New(miniDB())
	res := q(t, e, `SELECT COUNT(*) c FROM sales
		WHERE s_item_sk IN (SELECT i_item_sk FROM item WHERE i_category = 'Books')`)
	if res.Rows[0][0].AsInt() != 3 {
		t.Errorf("count = %v, want 3", res.Rows[0][0])
	}
}

func TestScalarSubquery(t *testing.T) {
	e := New(miniDB())
	res := q(t, e, `SELECT COUNT(*) c FROM item WHERE i_price > (SELECT AVG(i_price) FROM item)`)
	if res.Rows[0][0].AsInt() != 2 {
		t.Errorf("count = %v, want 2 (avg is 25)", res.Rows[0][0])
	}
}

func TestCTE(t *testing.T) {
	e := New(miniDB())
	res := q(t, e, `WITH brand_rev AS (
		SELECT i_brand b, SUM(s_qty * s_price) rev FROM sales, item
		WHERE s_item_sk = i_item_sk GROUP BY i_brand)
		SELECT b FROM brand_rev WHERE rev > 100 ORDER BY b`)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "zeta" {
		t.Fatalf("CTE result = %+v (zeta rev=230, acme rev=90)", res.Rows)
	}
}

func TestUnionAll(t *testing.T) {
	e := New(miniDB())
	res := q(t, e, `SELECT i_brand nm FROM item WHERE i_item_sk = 1
		UNION ALL SELECT i_brand FROM item WHERE i_item_sk = 3
		UNION ALL SELECT i_brand FROM item WHERE i_item_sk = 4
		ORDER BY nm`)
	if len(res.Rows) != 3 {
		t.Fatalf("union rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].S != "acme" || res.Rows[2][0].S != "zeta" {
		t.Errorf("union order = %v", res.Rows)
	}
}

// TestUnionAllPromotes holds every row of a UNION ALL column to the
// kind its blocks' types promote to — here an INTEGER block and a
// DECIMAL one, so a float — whether the union is the query's output or a
// CTE body, so both render each row alike.
func TestUnionAllPromotes(t *testing.T) {
	e := New(miniDB())
	union := `SELECT d_year AS x FROM dates WHERE d_date_sk = 1
		UNION ALL SELECT d_year * 1.5 AS x FROM dates WHERE d_date_sk = 1`
	for _, text := range []string{union, "WITH u AS (" + union + ") SELECT x FROM u"} {
		res := q(t, e, text)
		var got []string
		for _, row := range res.Rows {
			if row[0].K != storage.KindFloat {
				t.Errorf("%s: row %v is a %v, not a decimal", text, row, row[0].K)
			}
			got = append(got, row[0].String())
		}
		if want := []string{"2000.00", "3000.00"}; !slices.Equal(got, want) {
			t.Errorf("%s renders %q, want %q", text, got, want)
		}
	}
}

func TestFactToFactJoin(t *testing.T) {
	e := New(miniDB())
	res := q(t, e, `SELECT s_ticket, r_qty FROM sales, returns
		WHERE s_item_sk = r_item_sk AND s_ticket = r_ticket ORDER BY s_ticket`)
	if len(res.Rows) != 2 {
		t.Fatalf("fact-to-fact join rows = %d, want 2", len(res.Rows))
	}
}

func TestDateLiteralsAndArithmetic(t *testing.T) {
	e := New(miniDB())
	res := q(t, e, `SELECT COUNT(*) c FROM dates
		WHERE d_date BETWEEN '2000-06-01' AND '2001-12-31'`)
	if res.Rows[0][0].AsInt() != 2 {
		t.Errorf("date range count = %v, want 2", res.Rows[0][0])
	}
	res = q(t, e, `SELECT COUNT(*) c FROM dates WHERE d_date > DATE '2000-01-15' - 5`)
	if res.Rows[0][0].AsInt() != 3 {
		t.Errorf("date arithmetic count = %v, want 3", res.Rows[0][0])
	}
}

func TestThreeValuedLogic(t *testing.T) {
	e := New(miniDB())
	// NULL date fails both the predicate and its negation.
	a := q(t, e, `SELECT COUNT(*) c FROM sales WHERE s_date_sk = 1`)
	b := q(t, e, `SELECT COUNT(*) c FROM sales WHERE NOT (s_date_sk = 1)`)
	if a.Rows[0][0].AsInt()+b.Rows[0][0].AsInt() != 5 {
		t.Errorf("3VL: %v + %v should be 5 (one NULL row excluded from both)",
			a.Rows[0][0], b.Rows[0][0])
	}
	c := q(t, e, `SELECT COUNT(*) c FROM sales WHERE s_date_sk IS NULL`)
	if c.Rows[0][0].AsInt() != 1 {
		t.Errorf("IS NULL count = %v", c.Rows[0][0])
	}
}

func TestScalarFunctions(t *testing.T) {
	e := New(miniDB())
	res := q(t, e, `SELECT COALESCE(s_date_sk, -1) d, ABS(-5) a, ROUND(2.567, 2) r,
		SUBSTR(i_brand, 1, 2) sb, UPPER(i_brand) up
		FROM sales, item WHERE s_item_sk = i_item_sk AND s_ticket = 103`)
	row := res.Rows[0]
	if row[0].AsInt() != -1 {
		t.Errorf("coalesce = %v", row[0])
	}
	if row[1].AsInt() != 5 {
		t.Errorf("abs = %v", row[1])
	}
	if row[2].AsFloat() != 2.57 {
		t.Errorf("round = %v", row[2])
	}
	if row[3].S != "ac" || row[4].S != "ACME" {
		t.Errorf("substr/upper = %v/%v", row[3], row[4])
	}
}

func TestErrorCases(t *testing.T) {
	e := New(miniDB())
	bad := []string{
		`SELECT x FROM nosuch`,
		`SELECT nosuch FROM item`,
		`SELECT i_item_sk FROM item, sales WHERE s_qty = 1 AND i_price = s_qty GROUP BY i_item_sk ORDER BY s_price`, // s_price not grouped
		`SELECT i_brand FROM item GROUP BY i_category`,                                                              // brand not grouped
		`SELECT s_qty FROM sales, sales WHERE s_qty = 1`,                                                            // duplicate binding
		`SELECT SUM(i_price) FROM item WHERE SUM(i_price) > 1`,                                                      // aggregate in WHERE
		`SELECT i_brand FROM item ORDER BY 9`,                                                                       // ordinal out of range
		`SELECT UNKNOWN_FUNC(i_price) FROM item`,                                                                    // unknown function
		`SELECT (SELECT i_brand, i_price FROM item) FROM item`,                                                      // multi-col scalar subquery
		`SELECT i_price FROM item WHERE i_price > (SELECT i_price FROM item)`,                                       // multi-row scalar
	}
	for _, query := range bad {
		if _, err := e.Query(query); err == nil {
			t.Errorf("Query(%s) unexpectedly succeeded", query)
		}
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	e := New(miniDB())
	// The circular-relationship pattern of §2.2: the same dimension
	// joined twice under different bindings.
	res := q(t, e, `SELECT a.i_brand, b.i_brand FROM item a, item b
		WHERE a.i_category = b.i_category AND a.i_item_sk < b.i_item_sk`)
	if len(res.Rows) != 1 {
		t.Fatalf("self join rows = %d, want 1 (Books pair)", len(res.Rows))
	}
}

func TestConstantFalsePredicate(t *testing.T) {
	e := New(miniDB())
	res := q(t, e, `SELECT i_brand FROM item WHERE 1 = 0`)
	if len(res.Rows) != 0 {
		t.Errorf("constant-false returned %d rows", len(res.Rows))
	}
	res = q(t, e, `SELECT COUNT(*) c FROM item WHERE 1 = 1`)
	if res.Rows[0][0].AsInt() != 4 {
		t.Errorf("constant-true count = %v", res.Rows[0][0])
	}
}

func TestResultString(t *testing.T) {
	e := New(miniDB())
	res := q(t, e, `SELECT i_brand, i_price FROM item WHERE i_item_sk = 1`)
	out := res.String()
	if !strings.Contains(out, "i_brand") || !strings.Contains(out, "acme") {
		t.Errorf("Result.String output:\n%s", out)
	}
}

func TestConcurrentQueries(t *testing.T) {
	e := New(miniDB())
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, err := e.Query(`SELECT i_brand, SUM(s_qty) FROM sales, item
				WHERE s_item_sk = i_item_sk GROUP BY i_brand`)
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestInvalidateIndexes(t *testing.T) {
	e := New(miniDB())
	q(t, e, `SELECT COUNT(*) c FROM sales, item WHERE s_item_sk = i_item_sk AND i_category = 'Books'`)
	// Append a row, invalidate, re-query: count must reflect new data.
	sales := e.DB().Table("sales")
	sales.Append([]storage.Value{storage.Int(2), storage.Int(1), storage.Int(1), storage.Float(10), storage.Int(200)})
	e.InvalidateIndexes("sales")
	res := q(t, e, `SELECT COUNT(*) c FROM sales, item WHERE s_item_sk = i_item_sk AND i_category = 'Books'`)
	if res.Rows[0][0].AsInt() != 4 {
		t.Errorf("count after insert = %v, want 4", res.Rows[0][0])
	}
}

// TestRollup (SQL-99 OLAP amendment): GROUP BY ROLLUP produces subtotal
// rows per prefix level plus a grand total, NULLs marking rolled-up
// columns.
func TestRollup(t *testing.T) {
	e := New(miniDB())
	res := q(t, e, `SELECT i_category, i_brand, SUM(i_price) s
		FROM item GROUP BY ROLLUP(i_category, i_brand)
		ORDER BY i_category, i_brand`)
	// 4 leaf groups (each category+brand pair is unique here except
	// Books which has two brands -> leaf groups: Books/acme, Books/zeta,
	// Home/acme, Sports/zeta = 4), 3 category subtotals, 1 grand total.
	if len(res.Rows) != 8 {
		t.Fatalf("rollup rows = %d, want 8:\n%s", len(res.Rows), res.String())
	}
	var grand, catSubtotals, leaves int
	for _, row := range res.Rows {
		switch {
		case row[0].IsNull() && row[1].IsNull():
			grand++
			if row[2].AsFloat() != 100 {
				t.Errorf("grand total = %v, want 100", row[2])
			}
		case row[1].IsNull():
			catSubtotals++
			if row[0].S == "Books" && row[2].AsFloat() != 40 {
				t.Errorf("Books subtotal = %v, want 40", row[2])
			}
		default:
			leaves++
		}
	}
	if grand != 1 || catSubtotals != 3 || leaves != 4 {
		t.Errorf("rollup shape: grand=%d subtotals=%d leaves=%d", grand, catSubtotals, leaves)
	}
}

func TestRollupSingleColumn(t *testing.T) {
	e := New(miniDB())
	res := q(t, e, `SELECT i_brand, COUNT(*) c FROM item GROUP BY ROLLUP(i_brand) ORDER BY c`)
	// acme(2), zeta(2), total(4).
	if len(res.Rows) != 3 {
		t.Fatalf("rollup rows = %d, want 3", len(res.Rows))
	}
	if res.Rows[2][1].AsInt() != 4 || !res.Rows[2][0].IsNull() {
		t.Errorf("grand total row = %v", res.Rows[2])
	}
}

func TestRollupWithWindowRejected(t *testing.T) {
	e := New(miniDB())
	_, err := e.Query(`SELECT i_brand, SUM(i_price),
		SUM(SUM(i_price)) OVER (PARTITION BY i_brand)
		FROM item GROUP BY ROLLUP(i_brand)`)
	if err == nil {
		t.Fatal("ROLLUP with window function should be rejected")
	}
}

func TestRollupHaving(t *testing.T) {
	e := New(miniDB())
	// HAVING applies to subtotal rows too (standard semantics).
	res := q(t, e, `SELECT i_category, SUM(i_price) s FROM item
		GROUP BY ROLLUP(i_category) HAVING SUM(i_price) > 35 ORDER BY s`)
	// Books=40, Sports=40, grand=100 pass; Home=20 filtered.
	if len(res.Rows) != 3 {
		t.Fatalf("rollup+having rows = %d, want 3:\n%s", len(res.Rows), res.String())
	}
}

func TestExplainTrace(t *testing.T) {
	e := New(miniDB())
	// Pin the hash pipeline: this half checks its explain surface, and
	// the cost planner is free to pick star for a query this tiny.
	e.SetMode(plan.ForceHashJoin)
	out, err := e.Explain(`SELECT i_brand, SUM(s_qty) FROM sales, item
		WHERE s_item_sk = i_item_sk AND i_category = 'Books' GROUP BY i_brand`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"strategy:", "join order:", "sales (driver)", "item", "result:"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	tr := e.LastTrace()
	if len(tr.Tables) != 2 {
		t.Errorf("trace tables = %d, want 2", len(tr.Tables))
	}
	if tr.BaseRows == 0 {
		t.Error("trace base rows not recorded")
	}
	// A star-eligible query under ForceStar must record the strategy.
	e.SetMode(plan.ForceStar)
	if _, err := e.Query(`SELECT COUNT(*) c FROM sales, dates
		WHERE s_date_sk = d_date_sk AND d_moy = 11`); err != nil {
		t.Fatal(err)
	}
	if e.LastTrace().Strategy != plan.StarTransform {
		t.Errorf("star trace strategy = %v", e.LastTrace().Strategy)
	}
	if !strings.Contains(e.LastTrace().String(), "bitmap-driven") {
		t.Error("star trace should mention the bitmap-driven fact scan")
	}
}

func TestExplainError(t *testing.T) {
	e := New(miniDB())
	if _, err := e.Explain("SELECT nope FROM item"); err == nil {
		t.Fatal("Explain of invalid query should fail")
	}
}

// TestStatisticsImproveEstimates: the statistics-based estimator must be
// closer to the true filtered cardinality than the fixed heuristics on
// a selective date predicate (the load test gathers statistics because
// the optimizer needs them, §5.2).
func TestStatisticsImproveEstimates(t *testing.T) {
	db := miniDB()
	q := `SELECT COUNT(*) c FROM sales, dates
		WHERE s_date_sk = d_date_sk AND d_year = 2000 AND d_moy = 11`
	actual := 1.0 // one dates row matches (2000, 11)

	e := New(db)
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	estWith := -1.0
	for _, tt := range e.LastTrace().Tables {
		if tt.Binding == "dates" {
			estWith = tt.Estimate
		}
	}
	if estWith < 0 {
		t.Fatal("no estimate for dates in the trace")
	}
	// What the textbook heuristics alone would estimate: two equality
	// predicates on the dates rows.
	eq := plan.EstimateFilterSelectivity("eq")
	estWithout := float64(db.Table("dates").NumRows()) * eq * eq

	if math.Abs(estWith-actual) > math.Abs(estWithout-actual) {
		t.Errorf("stats estimate %.2f is farther from truth (%.0f) than heuristic %.2f",
			estWith, actual, estWithout)
	}
}

// TestStatsSelectivityShapes exercises the analyzable predicate shapes.
func TestStatsSelectivityShapes(t *testing.T) {
	e := New(miniDB())
	cases := []struct {
		where string
		// trueRows is the exact qualifying row count in item (4 rows).
		trueRows float64
		// tolerance on the estimate.
		tol float64
	}{
		{"i_item_sk = 2", 1, 0.5},
		{"i_item_sk BETWEEN 1 AND 2", 2, 0.5},
		{"i_item_sk < 3", 2, 0.5},
		{"i_item_sk > 2", 2, 0.5},
		{"i_item_sk IN (1, 2, 3)", 3, 0.5},
		{"i_item_sk = 99", 0, 0.1}, // literal outside domain
	}
	for _, c := range cases {
		if _, err := e.Query("SELECT COUNT(*) c FROM item WHERE " + c.where); err != nil {
			t.Fatal(err)
		}
		est := e.LastTrace().Tables[0].Estimate
		if diff := est - c.trueRows; diff > c.tol || diff < -c.tol {
			t.Errorf("WHERE %s: estimate %.2f, true %.0f", c.where, est, c.trueRows)
		}
	}
}

// TestStatsInvalidation: maintenance-style invalidation refreshes the
// cached statistics.
func TestStatsInvalidation(t *testing.T) {
	db := miniDB()
	e := New(db)
	rangeQuery := "SELECT COUNT(*) c FROM item WHERE i_item_sk BETWEEN 1 AND 100"
	if _, err := e.Query(rangeQuery); err != nil {
		t.Fatal(err)
	}
	before := e.LastTrace().Tables[0].Estimate
	// Double the table: estimates must track after invalidation.
	item := db.Table("item")
	for i := 5; i <= 8; i++ {
		item.Append([]storage.Value{storage.Int(int64(i)), storage.Str("new"), storage.Float(1), storage.Str("Books")})
	}
	e.InvalidateIndexes("item")
	if _, err := e.Query(rangeQuery); err != nil {
		t.Fatal(err)
	}
	after := e.LastTrace().Tables[0].Estimate
	if after <= before {
		t.Errorf("estimate did not track table growth: %.2f -> %.2f", before, after)
	}
}

// TestTypeMismatchRejected: string-vs-number comparisons are bind-time
// errors, not runtime panics.
func TestTypeMismatchRejected(t *testing.T) {
	e := New(miniDB())
	for _, bad := range []string{
		`SELECT i_brand FROM item WHERE i_brand > 5`,
		`SELECT i_brand FROM item WHERE 5 = i_brand`,
		`SELECT i_brand FROM item WHERE i_price < 'abc'`,
	} {
		if _, err := e.Query(bad); err == nil {
			t.Errorf("Query(%s) should fail with a type error", bad)
		}
	}
	// NULL comparisons stay legal.
	res := q(t, e, `SELECT COUNT(*) c FROM item WHERE i_brand = NULL`)
	if res.Rows[0][0].AsInt() != 0 {
		t.Errorf("= NULL should match nothing, got %v", res.Rows[0][0])
	}
}

// TestPanicBackstop: an internal panic surfaces as an error, leaving the
// engine usable.
func TestPanicBackstop(t *testing.T) {
	db := miniDB()
	e := New(db)
	// A column whose declared type disagrees with its stored vector (the
	// decimals are in the float vector, the readers look in the integer
	// one) breaks a storage invariant mid-scan.
	price := db.Table("item").ColByName("i_price")
	price.Type = schema.Integer
	_, err := e.Query(`SELECT SUM(i_price) FROM item WHERE i_price > 5`)
	price.Type = schema.Decimal
	if err == nil {
		t.Fatal("query over a corrupted column returned no error")
	}
	if !strings.Contains(err.Error(), "internal error") {
		t.Errorf("unexpected error text: %v", err)
	}
	// Engine still works afterwards.
	if _, err := e.Query(`SELECT COUNT(*) c FROM item`); err != nil {
		t.Fatalf("engine unusable after recovered panic: %v", err)
	}
}

// TestCube (SQL-99 OLAP amendment): GROUP BY CUBE produces rows for
// every subset of the grouping columns.
func TestCube(t *testing.T) {
	e := New(miniDB())
	res := q(t, e, `SELECT i_category, i_brand, SUM(i_price) s
		FROM item GROUP BY CUBE(i_category, i_brand)`)
	// Leaves: 4 (Books/acme, Books/zeta, Home/acme, Sports/zeta)
	// category subtotals: 3; brand subtotals: 2; grand total: 1 -> 10.
	if len(res.Rows) != 10 {
		t.Fatalf("cube rows = %d, want 10:\n%s", len(res.Rows), res.String())
	}
	brandOnly := 0
	for _, row := range res.Rows {
		if row[0].IsNull() && !row[1].IsNull() {
			brandOnly++
			if row[1].S == "acme" && row[2].AsFloat() != 30 {
				t.Errorf("acme brand subtotal = %v, want 30", row[2])
			}
		}
	}
	if brandOnly != 2 {
		t.Errorf("brand-only subtotals = %d, want 2", brandOnly)
	}
}

func TestLimitOffset(t *testing.T) {
	e := New(miniDB())
	res := q(t, e, `SELECT i_item_sk FROM item ORDER BY i_item_sk LIMIT 2 OFFSET 1`)
	if len(res.Rows) != 2 || res.Rows[0][0].AsInt() != 2 || res.Rows[1][0].AsInt() != 3 {
		t.Fatalf("limit/offset rows = %+v", res.Rows)
	}
	// Offset past the end yields no rows.
	res = q(t, e, `SELECT i_item_sk FROM item ORDER BY i_item_sk LIMIT 5 OFFSET 100`)
	if len(res.Rows) != 0 {
		t.Errorf("offset past end returned %d rows", len(res.Rows))
	}
	// Offset over a union.
	res = q(t, e, `SELECT i_item_sk k FROM item UNION ALL SELECT i_item_sk FROM item
		ORDER BY k LIMIT 3 OFFSET 2`)
	if len(res.Rows) != 3 || res.Rows[0][0].AsInt() != 2 {
		t.Errorf("union offset rows = %+v", res.Rows)
	}
}
