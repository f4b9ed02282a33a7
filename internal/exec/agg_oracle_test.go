package exec

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"tpcds/internal/rng"
	"tpcds/internal/schema"
	"tpcds/internal/sql"
	"tpcds/internal/storage"
)

// The aggregation and ordering operators against the code they replaced
// (agg_reference_test.go): randomised tables — dictionary strings, plain
// strings past the dictionary's demotion, integers with NULLs, negatives
// and ranges too wide for a dense table, dates, floats with -0 and NaN,
// computed keys — crossed with every aggregate (DISTINCT too), ROLLUP,
// CUBE, HAVING, windows, DISTINCT, ORDER BY with ties, NULLs and DESC,
// LIMIT and OFFSET. Both
// sides bind and join through the same engine; rows, their order and
// every float's bits must agree. The inputs avoid the reference's two
// defects: no string holds a 0 byte, and no sort key can be NaN.

// aggGen draws one randomised database and query.
type aggGen struct {
	s *rng.Stream
}

func (g *aggGen) pick(opts ...string) string { return opts[g.s.Intn(len(opts))] }
func (g *aggGen) chance(n int) bool          { return g.s.Intn(n) == 0 }

// db builds fact t and dimension d. t_f holds -0 and NaN; t_g is a
// NaN-free float with ties and -0, fit to sort on.
func (g *aggGen) db() *storage.DB {
	rows := g.s.Intn(40)
	switch {
	case g.chance(5): // across the batch edges of the vector loops
		rows = batchEdges[g.s.Intn(len(batchEdges))]
	case !g.chance(6):
		rows = 300 + g.s.Intn(400) // enough distinct t_ps to demote its dictionary
	}
	return g.dbOf(rows)
}

// batchEdges are row counts on either side of a batch edge.
var batchEdges = []int{1, batchLen - 1, batchLen, batchLen + 1, 2*batchLen + 7}

// dbOf builds db's tables with rows rows in t; t_o numbers them.
func (g *aggGen) dbOf(rows int) *storage.DB {
	db := storage.NewDB()
	dims := 1 + g.s.Intn(12)
	d := db.Create(&schema.Table{Name: "d", Kind: schema.Dimension, PrimaryKey: []string{"d_k"}, Columns: []schema.Column{
		{Name: "d_k", Type: schema.Identifier}, {Name: "d_g", Type: schema.Integer}, {Name: "d_s", Type: schema.Char},
	}})
	for k := 1; k <= dims; k++ {
		d.Append([]storage.Value{storage.Int(int64(k)), g.intOrNull(3), storage.Str(g.pick("a", "b", "c"))})
	}
	t := db.Create(&schema.Table{Name: "t", Kind: schema.Fact, Columns: []schema.Column{
		{Name: "t_k", Type: schema.Identifier, Nullable: true},
		{Name: "t_ds", Type: schema.Char, Nullable: true},
		{Name: "t_ps", Type: schema.Varchar, Nullable: true},
		{Name: "t_i", Type: schema.Integer, Nullable: true},
		{Name: "t_w", Type: schema.Integer, Nullable: true},
		{Name: "t_dt", Type: schema.Date, Nullable: true},
		{Name: "t_f", Type: schema.Decimal, Nullable: true},
		{Name: "t_g", Type: schema.Decimal, Nullable: true},
		{Name: "t_o", Type: schema.Identifier},
	}})
	wide := []int64{1 << 53, 1<<53 + 1, -(1 << 53), -(1<<53 + 1), 1 << 60, -(1 << 60), math.MaxInt64, math.MinInt64, 7, -7}
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), 1.5, -2.25, 0.1, 1e300}
	for r := 0; r < rows; r++ {
		null := func(v storage.Value) storage.Value {
			if g.chance(8) {
				return storage.Null
			}
			return v
		}
		k := storage.Int(1 + g.s.Int63n(int64(dims)+2)) // a key past the dimension misses
		ps := fmt.Sprintf("p%d", g.s.Intn(4*rows+1))
		if g.chance(4) {
			ps = g.pick("p1", "p2", "x'y")
		}
		w := wide[g.s.Intn(len(wide))]
		if g.chance(2) {
			w = g.s.Int63n(1<<62) - 1<<61
		}
		f := floats[g.s.Intn(len(floats))]
		if g.chance(2) {
			f = float64(g.s.Intn(400)-200) / 8
		}
		gv := float64(g.s.Intn(9)-4) / 4
		if g.chance(10) {
			gv = math.Copysign(0, -1)
		}
		t.Append([]storage.Value{
			null(k), null(storage.Str(g.pick("", "red", "green", "blue", "o'k", "Z"))), null(storage.Str(ps)),
			g.intOrNull(5), null(storage.Int(w)), null(storage.DateV(36500 + g.s.Int63n(60))),
			null(storage.Float(f)), null(storage.Float(gv)), storage.Int(int64(r)),
		})
	}
	return db
}

func (g *aggGen) intOrNull(r int64) storage.Value {
	if g.chance(8) {
		return storage.Null
	}
	return storage.Int(g.s.Int63n(2*r+1) - r)
}

// aggArg is an aggregate argument; nan marks one that may be NaN.
type aggArg struct {
	sql      string
	num, nan bool
}

var (
	aggGroupKeys = []string{"t_ds", "t_ps", "t_i", "t_w", "t_dt", "t_f", "t_g", "d_s", "d_g",
		"CASE WHEN t_i > 0 THEN 'pos' WHEN t_i < 0 THEN 'neg' END", "t_i + t_k", "t_g * 2", "COALESCE(t_ds, 'none')"}
	aggArgs = []aggArg{
		{"t_i", true, false}, {"t_w", true, false}, {"t_dt", true, false}, {"t_f", true, true}, {"t_g", true, false},
		{"t_ds", false, false}, {"t_ps", false, false}, {"d_g", true, false}, {"t_i * 2", true, false},
		{"t_g + t_i", true, false}, {"CASE WHEN t_i > 0 THEN t_g ELSE t_i END", true, false},
	}
)

// query draws one statement over t and d. ORDER BY uses only select
// items that cannot be NaN.
func (g *aggGen) query() string {
	from := g.pick("t", "t LEFT OUTER JOIN d ON t_k = d_k", "t, d WHERE t_k = d_k")
	if !strings.Contains(from, " d") {
		from = "t" // d columns are not in scope
	}
	var keys []string
	for _, k := range aggGroupKeys {
		if from != "t" || !strings.HasPrefix(k, "d_") {
			keys = append(keys, k)
		}
	}
	var items []string
	var sortable []int
	add := func(item string, nan bool) {
		items = append(items, item)
		if !nan {
			sortable = append(sortable, len(items))
		}
	}
	var groups []string
	aggregated := !g.chance(4)
	if aggregated {
		for _, k := range keys {
			if g.chance(4) && len(groups) < 4 {
				groups = append(groups, k)
				add(k, k == "t_f")
			}
		}
		for n := 1 + g.s.Intn(4); n > 0; n-- {
			a := aggArgs[g.s.Intn(len(aggArgs))]
			if from == "t" && strings.HasPrefix(a.sql, "d_") {
				a = aggArgs[0]
			}
			fn := g.pick("COUNT", "COUNT", "MIN", "MAX", "SUM", "AVG", "STDDEV_SAMP")
			if !a.num && fn != "COUNT" && fn != "MIN" && fn != "MAX" {
				fn = "COUNT"
			}
			switch {
			case fn == "COUNT" && g.chance(3):
				add("COUNT(*)", false)
			case (fn == "COUNT" || fn == "SUM") && g.chance(2):
				add(fn+"(DISTINCT "+a.sql+")", a.nan && fn == "SUM")
			default:
				add(fn+"("+a.sql+")", a.nan && fn != "COUNT")
			}
		}
	} else {
		for n := 1 + g.s.Intn(4); n > 0; n-- {
			k := keys[g.s.Intn(len(keys))]
			add(k, k == "t_f")
		}
	}
	grouping := strings.Join(groups, ", ")
	rollup := len(groups) > 0 && g.chance(4)
	if rollup {
		grouping = g.pick("ROLLUP(", "CUBE(") + grouping + ")"
	} else if len(groups) > 0 && g.chance(3) {
		part := groups[g.s.Intn(len(groups))]
		add(g.pick("SUM(SUM(t_g))", "COUNT(*)", "MIN(COUNT(*))")+" OVER (PARTITION BY "+part+")", false)
	}
	q := "SELECT "
	if g.chance(4) {
		q += "DISTINCT "
	}
	q += strings.Join(items, ", ") + " FROM " + from
	if len(groups) > 0 {
		q += " GROUP BY " + grouping
	}
	if aggregated && g.chance(4) {
		q += " HAVING " + g.pick("COUNT(*) > 1", "SUM(t_i) > 0", "MIN(t_g) < 0.5")
	}
	var order []string
	for _, i := range sortable {
		if g.chance(2) {
			order = append(order, fmt.Sprintf("%d%s", i, g.pick("", " DESC")))
		}
	}
	if len(order) > 0 {
		q += " ORDER BY " + strings.Join(order, ", ")
	}
	if g.chance(2) {
		q += fmt.Sprintf(" LIMIT %d", g.s.Intn(12))
		if g.chance(2) {
			q += fmt.Sprintf(" OFFSET %d", g.s.Intn(4))
		}
	}
	return q
}

// refQuery runs a single-block query through the engine's binder and
// joins, then the reference aggregation and ordering.
func refQuery(e *Engine, query string) (res *Result, err error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	b, orderBy, rows, _, err := e.joinSelect(e.newQctx(context.Background()), stmt, nil)
	if err != nil {
		return nil, err
	}
	aggregated := len(stmt.GroupBy) > 0 || stmt.Having != nil
	for _, item := range stmt.Items {
		aggregated = aggregated || !item.Star && exprContainsAggregate(item.Expr)
	}
	for _, oi := range orderBy {
		aggregated = aggregated || exprContainsAggregate(oi.Expr)
	}
	if aggregated {
		res, _, err = e.refAggregate(stmt, b, rows, orderBy)
	} else {
		res, _, err = e.refProjectSimple(stmt, b, rows, orderBy)
	}
	return res, err
}

// sameValue reports exact equality: kind, and a float's bits.
func sameValue(a, b storage.Value) bool {
	switch {
	case a.K != b.K:
		return false
	case a.K == storage.KindFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case a.K == storage.KindString:
		return a.S == b.S
	}
	return a.I == b.I
}

// checkAggCase runs case seed against the reference.
func checkAggCase(t *testing.T, seed uint64) {
	t.Helper()
	g := &aggGen{s: rng.NewStream(seed)}
	db := g.db()
	for q := 0; q < 4; q++ {
		checkAgainstReference(t, New(db), fmt.Sprintf("seed %d", seed), g.query())
	}
}

// checkAgainstReference runs query on e and through the reference: both
// fail, or both return the same rows in the same order, every float to
// the bit. It returns the reference's error.
func checkAgainstReference(t *testing.T, e *Engine, label, query string) error {
	t.Helper()
	want, werr := refQuery(e, query)
	got, gerr := e.Query(query)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%s: %s\nreference error %v, engine error %v", label, query, werr, gerr)
	}
	if werr != nil {
		return werr
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %s\n%d rows, reference %d", label, query, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if !sameValue(got.Rows[i][j], want.Rows[i][j]) {
				t.Fatalf("%s: %s\nrow %d: %v, reference %v", label, query, i, got.Rows[i], want.Rows[i])
			}
		}
	}
	return nil
}

func TestAggregateEqualsReference(t *testing.T) {
	cases := 150
	if testing.Short() {
		cases = 30
	}
	for seed := uint64(1); seed <= uint64(cases); seed++ {
		checkAggCase(t, seed)
	}
}

func FuzzAggregate(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) { checkAggCase(t, seed) })
}

// TestBatchEdgesEqualReference holds the loops that run a batch at a
// time after the scan to the reference at row counts on either side of
// a batch edge: rowSource.view's group keys, aggregate arguments and
// DISTINCT keys, HAVING's filter, sortKey and finish's projections —
// over base rows, over joined rows and over one group per row (t_o).
// No query cuts its rows with LIMIT, so every stage sees them all.
func TestBatchEdgesEqualReference(t *testing.T) {
	queries := []string{
		"SELECT t_o, t_i * 2, t_g + t_i, COALESCE(t_ds, 'none'), t_ps, t_dt, t_f FROM t",
		"SELECT t_ps, t_g, t_i + t_k, t_f FROM t ORDER BY 1 DESC, 2, 3",
		"SELECT DISTINCT t_i * 2, t_ds FROM t ORDER BY 2, 1",
		`SELECT t_i + t_k, COALESCE(t_ds, 'none'), COUNT(*), SUM(t_g + t_i), AVG(t_i * 2), MIN(t_ps)
			FROM t GROUP BY t_i + t_k, COALESCE(t_ds, 'none') ORDER BY 1, 2`,
		"SELECT t_o, SUM(t_i), MAX(t_g + 1) FROM t GROUP BY t_o HAVING SUM(t_i) > 0 OR MAX(t_g) < 0",
		"SELECT DISTINCT COUNT(*), MAX(t_i) FROM t GROUP BY t_o ORDER BY 2 DESC, 1",
		"SELECT t_o, d_s, t_g * d_g FROM t LEFT OUTER JOIN d ON t_k = d_k ORDER BY 3, 1 DESC",
		"SELECT t_o, t_i - d_g, d_s FROM t, d WHERE t_k = d_k AND t_i > d_g",
	}
	for _, n := range batchEdges {
		e := New((&aggGen{s: rng.NewStream(uint64(n))}).dbOf(n))
		for _, q := range queries {
			if err := checkAgainstReference(t, e, fmt.Sprintf("%d rows", n), q); err != nil {
				t.Fatalf("%d rows: %s: %v", n, q, err)
			}
		}
	}
}

// TestCompositeKeysWithNUL pins composite keys that concatenated
// GroupKeys conflated: ("x\x00sy", "z") and ("x", "y\x00sz") encode to
// the same bytes, so GROUP BY, DISTINCT and a two-column join each saw
// one key where there are two.
func TestCompositeKeysWithNUL(t *testing.T) {
	db := storage.NewDB()
	tab := db.Create(&schema.Table{Name: "t", Kind: schema.Dimension, Columns: []schema.Column{
		{Name: "a", Type: schema.Varchar}, {Name: "b", Type: schema.Varchar},
	}})
	tab.Append([]storage.Value{storage.Str("x\x00sy"), storage.Str("z")})
	tab.Append([]storage.Value{storage.Str("x"), storage.Str("y\x00sz")})
	e := New(db)
	for query, want := range map[string]int{
		"SELECT a, b, COUNT(*) c FROM t GROUP BY a, b":                  2,
		"SELECT DISTINCT a, b FROM t":                                   2,
		"SELECT t1.a FROM t t1, t t2 WHERE t1.a = t2.a AND t1.b = t2.b": 2,
	} {
		res, err := e.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != want {
			t.Errorf("%s: %d rows, want %d", query, len(res.Rows), want)
		}
		for _, row := range res.Rows {
			if len(row) == 3 && row[2].AsInt() != 1 {
				t.Errorf("%s: group %v counts %d rows, want 1", query, row[:2], row[2].AsInt())
			}
		}
	}
}

// TestAggregateAllocationBudget guards the point of typed group ids and
// accumulators: for a fixed set of groups, the number of allocations an
// aggregation makes does not grow with its input rows — vectors per
// column, never an object per row.
func TestAggregateAllocationBudget(t *testing.T) {
	mallocs := func(rows int) uint64 {
		g := &aggGen{s: rng.NewStream(9)}
		db := storage.NewDB()
		tab := db.Create(&schema.Table{Name: "t", Kind: schema.Fact, Columns: []schema.Column{
			{Name: "t_ds", Type: schema.Char}, {Name: "t_i", Type: schema.Integer},
			{Name: "t_g", Type: schema.Decimal}, {Name: "t_ps", Type: schema.Varchar},
		}})
		for r := 0; r < rows; r++ {
			tab.Append([]storage.Value{storage.Str(g.pick("a", "b", "c", "d")), storage.Int(int64(r % 4)),
				storage.Float(float64(r%100) / 4), storage.Str(fmt.Sprintf("p%d", r%8))})
		}
		e := New(db)
		query := `SELECT t_ds, t_i, t_ps, COUNT(*) c, SUM(t_g) s, AVG(t_g + t_i) a, MAX(t_g) m, COUNT(DISTINCT t_i) d
			FROM t GROUP BY t_ds, t_i, t_ps ORDER BY s DESC, c LIMIT 20`
		if _, err := e.Query(query); err != nil { // warm: plan, statistics
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := e.Query(query); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	small, large := mallocs(2000), mallocs(32000)
	t.Logf("%d allocations over 2,000 rows, %d over 32,000", small, large)
	if large > small+small/20 {
		t.Errorf("aggregating 16x the rows into the same groups made %d allocations, not about %d: is an operator allocating per row again?", large, small)
	}
}
