package exec

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"tpcds/internal/index"
	"tpcds/internal/obs"
	"tpcds/internal/qgen"
	"tpcds/internal/queries"
	"tpcds/internal/rng"
	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

// Selections answered from value bitmaps, against the kernels and
// against bexpr.eval on rows read through Table.Get.

// bitmapSelect runs table ti's selection over preds the way joinRows
// does for a table under the bitmap rule — bitmap answers first,
// kernels over their rows — whatever ti's size, and returns the
// survivors and how many of preds the bitmaps answered.
func bitmapSelect(b *binder, ti int, preds []bexpr) (ids []int32, answered int) {
	filters := make([]filterInfo, len(preds))
	for i, p := range preds {
		filters[i] = filterInfo{table: ti, pred: p}
	}
	b.sels = make([]*selection, len(b.tables))
	defer func() { b.sels = nil }()
	b.sels[ti], _ = b.answer(ti, preds)
	answered = len(preds) - len(b.sels[ti].rest)
	return b.selection(ti, filters).rowIDs(), answered
}

// kernelSelect is the survivors of preds by compileFilter and one serial
// tableFilter.scan over every row: no bitmap involved.
func kernelSelect(b *binder, ti int, preds []bexpr) []int32 {
	out := []int32{}
	b.compileFilter(preds).scan(b.qc, batchLen, nil, 0, b.tableAt(ti).tab.NumRows(), func(sel []int32) { out = append(out, sel...) })
	return out
}

// evalSelect is the survivors of preds by bexpr.eval on every row read
// through Table.Get.
func evalSelect(b *binder, ti int, preds []bexpr) []int32 {
	out, keeps := []int32{}, evalPasses(b, ti, preds)
	for r := 0; r < b.tableAt(ti).tab.NumRows(); r++ {
		if keeps(int32(r)) {
			out = append(out, int32(r))
		}
	}
	return out
}

// checkSelect compares the three selections of preds on table ti and
// returns the number of conjuncts the bitmaps answered.
func checkSelect(t *testing.T, label string, b *binder, ti int, preds []bexpr) int {
	t.Helper()
	got, answered := bitmapSelect(b, ti, preds)
	if want := kernelSelect(b, ti, preds); !slices.Equal(got, want) {
		t.Errorf("%s: bitmap selection has %d rows, kernel scan %d (first difference at %d)", label, len(got), len(want), firstDiff(got, want))
	}
	if want := evalSelect(b, ti, preds); !slices.Equal(got, want) {
		t.Errorf("%s: bitmap selection has %d rows, eval %d (first difference at %d)", label, len(got), len(want), firstDiff(got, want))
	}
	return answered
}

func firstDiff(a, b []int32) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestBitmapSelectionEqualsScanAllTemplates takes every (template,
// table) pair of the 99 templates under four query streams'
// substitutions in which value bitmaps answer at least one local
// conjunct, and requires the selection — bitmap answers ANDed, the other
// conjuncts as kernels over their rows — to equal both a kernel scan of
// every row and bexpr.eval on every row read through Table.Get. A
// conjunct set repeated on the same table is checked once.
func TestBitmapSelectionEqualsScanAllTemplates(t *testing.T) {
	if testing.Short() {
		t.Skip("all-99 bitmap selection check skipped in -short")
	}
	e := New(templateDB())
	type group struct {
		b     *binder
		ti    int
		preds []bexpr
		text  []string
	}
	seen := map[string]bool{}
	pairs, checked, answered := 0, 0, 0
	for stream := 0; stream < 4; stream++ {
		for _, tpl := range queries.All() {
			var groups []*group
			for _, lp := range streamPreds(t, e, tpl, stream) {
				var g *group
				for _, x := range groups {
					if x.b == lp.b && x.ti == lp.ti {
						g = x
					}
				}
				if g == nil {
					g = &group{b: lp.b, ti: lp.ti}
					groups = append(groups, g)
				}
				g.preds, g.text = append(g.preds, lp.p), append(g.text, lp.cond.Render())
			}
			for _, g := range groups {
				if !g.b.bitmapTable(g.ti) || !slices.ContainsFunc(g.preds, func(p bexpr) bool {
					col := soleColumn(g.b.tableAt(g.ti), p)
					return col >= 0 && e.valueIndexFor(g.b.tableAt(g.ti).tab, col) != nil
				}) {
					continue
				}
				pairs++
				inst := g.b.tableAt(g.ti)
				key := inst.tab.Def.Name + ": " + strings.Join(g.text, " AND ")
				if seen[key] {
					continue
				}
				seen[key] = true
				checked++
				answered += checkSelect(t, fmt.Sprintf("q%02d stream %d %s", tpl.ID, stream, key), g.b, g.ti, g.preds)
			}
		}
	}
	t.Logf("%d (template × stream, table) pairs answered from bitmaps, %d distinct conjunct sets, %d conjuncts answered", pairs, checked, answered)
	if pairs == 0 {
		t.Fatal("no template conjunct was answered from a bitmap")
	}
}

// valueIndexFor is valueIndex without the row count.
func (e *Engine) valueIndexFor(t *storage.Table, col int) *index.BitmapIndex {
	ix, _ := e.valueIndex(t, col)
	return ix
}

// valueDB is one dimension v of rows rows: v_k a key (one value per
// row, over the column rule past 256 rows), v_i a nullable int of few values, v_s a
// nullable dictionary string of few values, v_d a date of few values
// and v_f a decimal (never bitmapped).
func valueDB(seed uint64, rows int) *storage.DB {
	s := rng.NewStream(seed)
	db := storage.NewDB()
	v := db.Create(&schema.Table{
		Name: "v", Kind: schema.Dimension,
		Columns: []schema.Column{
			{Name: "v_k", Type: schema.Identifier},
			{Name: "v_i", Type: schema.Integer, Nullable: true},
			{Name: "v_s", Type: schema.Char, Len: 3, Nullable: true},
			{Name: "v_d", Type: schema.Date},
			{Name: "v_f", Type: schema.Decimal},
		},
		PrimaryKey: []string{"v_k"},
	})
	for r := 0; r < rows; r++ {
		i, str := storage.Value(storage.Int(s.Int63n(12)-3)), storage.Value(storage.Str(fmt.Sprintf("s%d", s.Intn(6))))
		if s.Intn(7) == 0 {
			i = storage.Null
		}
		if s.Intn(9) == 0 {
			str = storage.Null
		}
		v.Append([]storage.Value{storage.Int(int64(r + 1)), i, str, storage.DateV(10000 + s.Int63n(5)), storage.Float(float64(s.Intn(8)) / 2)})
	}
	return db
}

// TestBitmapSelectionHandCases: literals absent from the index and from
// the dictionary, IN with a NULL member, NULL rows, IS NULL and NOT IN
// on a column without NULL rows, an empty BETWEEN, a column over the
// bitmap rule, a decimal column, and mixes of answered
// and kernel conjuncts — each against the kernels and eval, with the
// number of conjuncts the bitmaps must answer. v has 300 rows, so the
// cases drive binder.answer directly (bitmapSelect); the table rule is
// TestBitmapSelectionCounters'.
func TestBitmapSelectionHandCases(t *testing.T) {
	e := New(valueDB(3, 300))
	cases := []struct {
		where    string
		answered int
	}{
		{"v_i = 99", 1},                  // absent from the index
		{"v_s = 'zz'", 1},                // absent from the dictionary
		{"v_i IN (1, NULL)", 1},          // a NULL member: UNKNOWN where no member matches
		{"v_i NOT IN (1, NULL)", 1},      // never true
		{"v_s NOT IN ('s1', NULL)", 1},   //
		{"v_i IS NULL", 1},               // the NULL rows
		{"v_s IS NULL OR v_s = 's2'", 1}, //
		{"v_i BETWEEN 5 AND 2", 1},       // lo > hi
		{"v_i NOT BETWEEN 5 AND 2", 1},   //
		{"v_d BETWEEN DATE '1997-05-20' AND DATE '1997-05-21'", 1},
		{"v_d IS NULL", 1}, // a column without NULL rows has no NULL bitmap
		{"NOT (v_d IN (DATE '1997-05-20', DATE '1997-05-21'))", 1},
		{"v_i + 1 > 3", 1}, // no kernel, one column
		{"v_k = 17", 0},    // one value per row: over the rule
		{"v_f = 1.5", 0},   // decimal
		{"v_i = v_k", 0},   // two columns
		{"v_i >= 0 AND v_s <> 's3' AND v_k > 40", 2},
		{"v_i IN (2, 4, NULL) AND v_i <> 4 AND v_f < 3", 2},
	}
	for _, c := range cases {
		b, preds := bindWhere(t, e, "v", c.where, true)
		if got := checkSelect(t, c.where, b, 0, preds); got != c.answered {
			t.Errorf("%s: %d conjuncts answered from bitmaps, want %d", c.where, got, c.answered)
		}
	}
}

// TestBitmapSelectionCounters pins what the counters say about a
// bitmap answer, on a table one row over the value-bitmap rule
// (bitmapTableRows): the query that builds a column's
// bitmaps counts the rows the build reads, a cached answer counts none,
// and the conjuncts left to kernels count the rows they read — the
// answer's rows. One row fewer and the table is scanned.
func TestBitmapSelectionCounters(t *testing.T) {
	db := valueDB(5, bitmapTableRows+1)
	rows := int64(db.Table("v").NumRows())
	survivors := func(where string) int64 { return countWhere(t, New(db), "v", where) }
	cases := []struct {
		where   string
		scanned int64
	}{
		{"v_i = 2", rows},                      // cold v_i
		{"v_i = 2", 0},                         // cached
		{"v_i IN (2, 3) AND v_s = 's1'", rows}, // cold v_s
		{"v_i = 2 AND v_f > 1", survivors("v_i = 2")},
		{"v_k > 10", 2 * rows}, // the build that finds v_k over the rule reads it, then the kernels
		{"v_k > 10", rows},     // the verdict is cached
	}
	e := New(db)
	e.SetProfiling(true)
	for i, c := range cases {
		reg := obs.NewRegistry()
		e.SetMetrics(reg)
		if _, tr, err := e.QueryTraced("SELECT COUNT(*) FROM v WHERE " + c.where); err != nil {
			t.Fatal(err)
		} else if !strings.Contains(tr.Profile.String(), "scan v") {
			t.Errorf("case %d %s: no scan node\n%s", i, c.where, tr.Profile)
		}
		if got := reg.Counter("exec_rows_scanned").Value(); got != c.scanned {
			t.Errorf("case %d %s: exec_rows_scanned = %d, want %d", i, c.where, got, c.scanned)
		}
	}
	small := valueDB(5, bitmapTableRows)
	e = New(small)
	for _, where := range []string{"v_i = 2", "v_i = 2"} {
		reg := obs.NewRegistry()
		e.SetMetrics(reg)
		countWhere(t, e, "v", where)
		if got, want := reg.Counter("exec_rows_scanned").Value(), int64(small.Table("v").NumRows()); got != want {
			t.Errorf("at the rule's size, %s: exec_rows_scanned = %d, want the scan's %d", where, got, want)
		}
	}
}

// TestBitmapCacheIntegrity runs the 99 templates twice on one engine:
// the second pass must return what the first did, and afterwards every
// value index and every fact foreign-key index the engine holds must
// equal a fresh build from the table — an AND or a scatter into a cached
// index instead of a private bitmap corrupts every later query that
// reads it.
func TestBitmapCacheIntegrity(t *testing.T) {
	if testing.Short() {
		t.Skip("all-99 double pass skipped in -short")
	}
	db := templateDB()
	e := New(db)
	var first []*Result
	for pass := 0; pass < 2; pass++ {
		for i, tpl := range queries.All() {
			text, err := qgen.Instantiate(tpl, qgen.StreamSeed(1, 0, tpl.ID))
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Query(text)
			if err != nil {
				t.Fatalf("q%02d: %v", tpl.ID, err)
			}
			if pass == 0 {
				first = append(first, res)
			} else {
				assertSameResult(t, fmt.Sprintf("q%02d second pass", tpl.ID), first[i], res)
			}
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	bitmapped, facts := 0, 0
	for key, c := range e.aux {
		tab := db.Table(key.table)
		switch ix, _ := c.v.(*index.BitmapIndex); {
		case key.kind == auxValues && ix != nil:
			bitmapped++
			if err := sameIndex(ix, freshValueIndex(tab, key.col)); err != "" {
				t.Errorf("cached value index %s.%d: %s", key.table, key.col, err)
			}
		case key.kind == auxPostings:
			facts++
			if err := sameIndex(ix, index.BuildBitmapIndex(tab.ScanInt64(key.col))); err != "" {
				t.Errorf("cached fact index %s.%d: %s", key.table, key.col, err)
			}
		}
	}
	if bitmapped == 0 {
		t.Fatal("the templates left no value bitmap in the engine")
	}
	if facts == 0 {
		t.Fatal("the templates left no fact index in the engine")
	}
	t.Logf("%d value indexes and %d fact indexes equal fresh builds", bitmapped, facts)
}

// sameIndex describes how a differs from b — keys, NULL rows or one
// key's rows — or returns "" when they index the same rows.
func sameIndex(a, b *index.BitmapIndex) string {
	if a.NumRows() != b.NumRows() || !slices.Equal(a.Keys(), b.Keys()) || !sameNulls(a, b) {
		return "keys or NULL rows differ from a fresh build"
	}
	x, y := index.NewBitmap(a.NumRows()), index.NewBitmap(b.NumRows())
	for _, k := range b.Keys() {
		x.Clear()
		y.Clear()
		a.Or(x, []int64{k})
		b.Or(y, []int64{k})
		if !x.Equal(y) {
			return fmt.Sprintf("the rows of key %d differ from a fresh build", k)
		}
	}
	return ""
}

// sameNulls reports whether two indexes mark the same NULL rows; an
// index of a column without NULL rows has no NULL bitmap.
func sameNulls(a, b *index.BitmapIndex) bool {
	if a.Nulls() == nil || b.Nulls() == nil {
		return a.Nulls() == b.Nulls()
	}
	return a.Nulls().Equal(b.Nulls())
}

// freshValueIndex builds column col's value bitmaps outside any engine.
func freshValueIndex(tab *storage.Table, col int) *index.BitmapIndex {
	_, ints, _, _, codes, dict, nulls := tab.Col(col).Raw()
	if codes != nil {
		return index.BuildCodeIndex(codes, nulls, len(dict))
	}
	return index.BuildBitmapIndexUpTo(ints, nulls, maxBitmapValues)
}

// TestBitmapFirstUsePublishesOnce: goroutines that first use the same
// cold column together all get the one index the engine publishes.
func TestBitmapFirstUsePublishesOnce(t *testing.T) {
	db := valueDB(7, 5000)
	tab := db.Table("v")
	for _, col := range []string{"v_i", "v_s"} {
		e := New(db)
		const n = 4
		got := make([]*index.BitmapIndex, n)
		var start, done sync.WaitGroup
		start.Add(1)
		for g := range n {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				got[g] = e.valueIndexFor(tab, tab.Def.ColumnIndex(col))
			}()
		}
		start.Done()
		done.Wait()
		if got[0] == nil {
			t.Fatalf("%s: no index", col)
		}
		for g := 1; g < n; g++ {
			if got[g] != got[0] {
				t.Errorf("%s: goroutine %d got a second index", col, g)
			}
		}
		if len(e.aux) != 1 {
			t.Errorf("%s: %d cache entries, want 1", col, len(e.aux))
		}
	}
}
