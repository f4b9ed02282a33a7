package exec

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"tpcds/internal/queries"
	"tpcds/internal/rng"
	"tpcds/internal/sql"
	"tpcds/internal/storage"
)

// Predicate kernels against bexpr.eval. The executor has one
// configuration, so nothing here compares the engine with itself: every
// kernel answer is checked against eval on a row read through
// Table.Get (which FuzzColumnOps checks against a slice model), not
// through the colReader vectors the kernels read; the partition
// identity needs no oracle at all; and the batch scanner is called
// directly at the batch sizes around a boundary.

// evalTri is bexpr.eval's three-valued answer in a kernel's encoding:
// 1 true, 0 false, -1 unknown.
func evalTri(p bexpr, row []storage.Value) int8 {
	if v := p.eval(row); !v.IsNull() {
		return b2t(v.AsInt() != 0)
	}
	return -1
}

// evalRow fills the slots of row that cols read with row r of table ti,
// through Table.Get.
func evalRow(b *binder, ti int, cols []*colExpr, r int32, row []storage.Value) {
	inst := b.tableAt(ti)
	for _, c := range cols {
		row[c.off] = inst.tab.Get(int(r), c.off-inst.offset)
	}
}

// checkKernel runs kernel over sel and compares every answer with
// bexpr.eval on the same row. It returns the kernel's answers, the
// first position where they disagree (-1 when none does) and eval's
// answer there.
func checkKernel(b *binder, ti int, p bexpr, kernel triFn, sel []int32) (out []int8, bad int, want int8) {
	out = make([]int8, len(sel))
	kernel(sel, out)
	row, cols := make([]storage.Value, b.total), exprCols(p)
	for i, r := range sel {
		evalRow(b, ti, cols, r, row)
		if want := evalTri(p, row); out[i] != want {
			return out, i, want
		}
	}
	return out, -1, 0
}

// allRows is the selection vector of every row of a table.
func allRows(n int) []int32 {
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

// TestKernelsEqualEvalAllTemplates checks every local predicate of the
// 99 templates that compiles to a kernel — reached the way runStatement
// reaches it, CTE bodies and subqueries included — on every row of its
// table: the kernel must answer true, false or UNKNOWN exactly as
// bexpr.eval does. A predicate text repeated on the same table is
// checked once.
func TestKernelsEqualEvalAllTemplates(t *testing.T) {
	if testing.Short() {
		t.Skip("all-99 kernel check skipped in -short; FuzzKernelEqualsEval's seeds still run")
	}
	e := New(templateDB())
	e.SetParallelism(1)
	type key struct {
		tab  *storage.Table
		cond string
	}
	seen := map[key]bool{}
	pairs, checked, rows := 0, 0, 0
	for _, tpl := range queries.All() {
		for _, lp := range templatePreds(t, e, tpl) {
			kernel, ok := lp.b.compileTri(lp.ti, lp.p)
			if !ok {
				continue
			}
			pairs++
			inst := lp.b.tableAt(lp.ti)
			k := key{inst.tab, lp.cond.Render()}
			if seen[k] {
				continue
			}
			seen[k] = true
			checked++
			n := inst.tab.NumRows()
			rows += n
			if out, bad, want := checkKernel(lp.b, lp.ti, lp.p, kernel, allRows(n)); bad >= 0 {
				t.Errorf("q%02d %s on %s row %d: kernel %d, eval %d (row %v)", tpl.ID, lp.cond.Render(),
					inst.binding, bad, out[bad], want, inst.tab.Row(bad))
			}
		}
	}
	t.Logf("%d (template, predicate) pairs with a kernel, %d distinct predicates, %d rows checked", pairs, checked, rows)
	if pairs == 0 {
		t.Error("no compiled local predicate in any template: the walk lost its way")
	}
}

// countWhere runs SELECT COUNT(*) FROM from [WHERE where] through e.
func countWhere(t *testing.T, e *Engine, from, where string) int64 {
	t.Helper()
	q := "SELECT COUNT(*) FROM " + from
	if where != "" {
		q += " WHERE " + where
	}
	res, err := e.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res.Rows[0][0].AsInt()
}

// TestPartitionIdentityAllTemplates checks SQL's three-valued partition
// on the same template predicates, over the catalog tables, through
// Engine.Query: every row makes p true, false or UNKNOWN, so
// COUNT(*) WHERE p + COUNT(*) WHERE NOT (p) + COUNT(*) WHERE (p) IS NULL
// is the table's row count — serial and on four workers. The identity
// needs no oracle; it fails when a kernel and its negation disagree on
// which rows are UNKNOWN, or when batches drop or repeat rows.
func TestPartitionIdentityAllTemplates(t *testing.T) {
	if testing.Short() {
		t.Skip("all-99 partition identity skipped in -short")
	}
	db := templateDB()
	serial := New(db)
	serial.SetParallelism(1)
	par := parallelEngine(New(db))
	walk := New(db)
	walk.SetParallelism(1)
	seen, checked := map[string]bool{}, 0
	for _, tpl := range queries.All() {
		for _, lp := range templatePreds(t, walk, tpl) {
			inst := lp.b.tableAt(lp.ti)
			name := inst.tab.Def.Name
			var subs []*sql.SelectStmt
			nestedSelects(reflect.ValueOf(lp.cond), &subs)
			if db.Table(name) != inst.tab || len(subs) > 0 {
				continue // a CTE's table, or a predicate with a subquery
			}
			if _, ok := lp.b.compileTri(lp.ti, lp.p); !ok {
				continue
			}
			from := name
			if inst.binding != name {
				from += " " + inst.binding
			}
			p := lp.cond.Render()
			if seen[from+" "+p] {
				continue
			}
			seen[from+" "+p] = true
			checked++
			n := int64(inst.tab.NumRows())
			for i, e := range []*Engine{serial, par} {
				tr, fa, un := countWhere(t, e, from, p), countWhere(t, e, from, "NOT ("+p+")"), countWhere(t, e, from, "("+p+") IS NULL")
				if tr+fa+un != n {
					t.Errorf("q%02d %s over %s on %d workers: %d true + %d false + %d unknown = %d, table has %d rows",
						tpl.ID, p, from, []int{1, 4}[i], tr, fa, un, tr+fa+un, n)
				}
			}
		}
	}
	t.Logf("%d distinct predicates partition their tables", checked)
}

// bindWhere binds where over one table: whole, or split into the AND
// conjuncts compileFilter receives.
func bindWhere(t testing.TB, e *Engine, table, where string, split bool) (*binder, []bexpr) {
	t.Helper()
	stmt, err := sql.Parse("SELECT * FROM " + table + " WHERE " + where)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	b := newBinder(e, e.newQctx(context.Background()), nil)
	if err := b.addTable(stmt.From[0]); err != nil {
		t.Fatal(err)
	}
	conds := []sql.Expr{stmt.Where}
	if split {
		conds = conjuncts(stmt.Where)
	}
	var preds []bexpr
	for _, c := range conds {
		p, err := b.bind(c)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		preds = append(preds, p)
	}
	return b, preds
}

// TestScanBatchBoundaries calls tableFilter.scan directly at batch
// sizes 1, 2, 31, 32 and 33 over row ranges and id lists that start and
// end on either side of a batch edge, and requires the survivors to be
// exactly the rows bexpr.eval keeps, in order, delivered in non-empty
// batches no larger than the batch size.
func TestScanBatchBoundaries(t *testing.T) {
	db := randDB(11, 3*32+5, 12)
	e := New(db)
	n := db.Table("f").NumRows()
	s := rng.NewStream(5)
	asc, shuffled := []int32{}, make([]int32, 0, 2*n)
	for r := 0; r < n; r++ {
		if s.Intn(3) > 0 {
			asc = append(asc, int32(r))
		}
		// Probe order: a row may come back more than once, in any order.
		for k := s.Intn(3); k > 0; k-- {
			shuffled = append(shuffled, int32(s.Intn(n)))
		}
	}
	// Kernels alone, the eval fallback alone (no kernel for arithmetic),
	// and both in one filter.
	filters := []string{
		"f_v BETWEEN 10 AND 60",
		"f_v IS NULL OR f_v > 90",
		"f_v + 1 > 50",
		"f_m > 42.5 AND f_v <> 7 AND f_v * 2 < 150",
	}
	for _, where := range filters {
		b, preds := bindWhere(t, e, "f", where, true)
		tf := b.compileFilter(0, preds)
		row, cols := make([]storage.Value, b.total), exprCols(preds...)
		keeps := func(r int32) bool {
			evalRow(b, 0, cols, r, row)
			return passes(preds, row)
		}
		type source struct {
			name string
			ids  []int32 // nil: the table's rows
			len  int
		}
		for _, src := range []source{{"rows", nil, n}, {"ascending ids", asc, len(asc)}, {"probe-order ids", shuffled, len(shuffled)}} {
			for _, batch := range []int{1, 2, 31, 32, 33} {
				for _, rg := range [][2]int{{0, src.len}, {1, src.len - 1}, {31, 66}, {32, 64}, {33, 33}, {0, 1}} {
					lo, hi := rg[0], min(rg[1], src.len)
					var want, got []int32
					for i := lo; i < hi; i++ {
						r := int32(i)
						if src.ids != nil {
							r = src.ids[i]
						}
						if keeps(r) {
							want = append(want, r)
						}
					}
					tf.scan(b.qc, batch, src.ids, lo, hi, func(sel []int32) {
						if len(sel) == 0 || len(sel) > batch {
							t.Errorf("%s, %s, batch %d: a batch of %d survivors", where, src.name, batch, len(sel))
						}
						got = append(got, sel...)
					})
					if !slices.Equal(got, want) {
						t.Errorf("%s over %s [%d,%d), batch %d: survivors %v, eval keeps %v", where, src.name, lo, hi, batch, got, want)
					}
				}
			}
		}
	}
}

// kernelForms are single-table predicate forms over randDB's tables
// that each compile to one kernel — comparisons either way round,
// BETWEEN, IN with and without a NULL member, LIKE, IS NULL, NOT,
// AND/OR, column against column — with $1 and $2 standing for fuzzed
// constants.
var kernelForms = []struct{ table, where string }{
	{"f", "f_v BETWEEN $1 AND $2"},
	{"f", "f_v NOT BETWEEN $1 AND $2"},
	{"f", "f_v IN (1, 2, 3, 5, 8, 13, 21, 34, $1)"},
	{"f", "f_v NOT IN (1, 2, $1)"},
	{"f", "f_v IN ($1, NULL)"},
	{"f", "f_v NOT IN ($1, $2, NULL)"},
	{"f", "f_v IS NULL OR f_v > $1"},
	{"f", "f_v <= $1"},
	{"f", "f_v < $1"},
	{"f", "$1 >= f_v"},
	{"f", "f_v = $1"},
	{"f", "f_v <> $1"},
	{"f", "f_m > $1.5 AND f_v <> $2"},
	{"f", "f_m BETWEEN $1 AND $2.25"},
	{"f", "NOT (f_v >= $1 OR f_k < $2)"},
	{"f", "f_k = f_v"},
	{"f", "f_m >= f_v"},
	{"f", "f_k IS NOT NULL"},
	{"d", "d_s LIKE 's_'"},
	{"d", "d_s NOT LIKE '%$1'"},
	{"d", "d_s IN ('s$1', 's2')"},
	{"d", "d_s NOT IN ('s$1', NULL)"},
	{"d", "NOT (d_g = $1)"},
	{"d", "d_s = 's$1'"},
	{"d", "d_s < 's$1'"},
	{"d", "d_s BETWEEN 's0' AND 's$1'"},
	{"d", "d_g IN ($1, $2) AND d_s <> 's1'"},
}

// bitmapForms are conjunct sets over valueDB's v answered from value
// bitmaps — equality, IN with and without a NULL member, BETWEEN either
// way round, on an int and on a dictionary column — alone and mixed with
// a column over the bitmap rule, which stays a kernel.
var bitmapForms = []string{
	"v_i = $1",
	"v_i IN ($1, $2, 3)",
	"v_i IN ($1, NULL)",
	"v_i NOT IN ($1, $2)",
	"v_i BETWEEN $1 AND $2",
	"v_i NOT BETWEEN $1 AND $2",
	"v_s = 's$1'",
	"v_s IN ('s$1', 's$2', NULL)",
	"v_s BETWEEN 's$1' AND 's$2'",
	"v_i >= $1 AND v_s <> 's$2' AND v_k > $2",
	"v_k = $1",
}

// FuzzKernelEqualsEval compiles every kernel form with fuzzed constants
// over a random database and feeds it a random selection vector — a
// subset of the rows in any order, of any length from 0 to all of them
// — requiring each answer to equal bexpr.eval's on that row. Then every
// bitmap form with the same constants over a random valueDB must select
// what the kernels and eval select.
func FuzzKernelEqualsEval(f *testing.F) {
	f.Add(uint64(1), int8(10), int8(60), uint64(1))
	f.Add(uint64(2), int8(0), int8(99), uint64(2))
	f.Add(uint64(3), int8(50), int8(50), uint64(3))
	f.Add(uint64(42), int8(-3), int8(2), uint64(4))
	f.Fuzz(func(t *testing.T, seed uint64, c1, c2 int8, selSeed uint64) {
		db := randDB(seed%512, 200, 10)
		e := New(db)
		s := rng.NewStream(selSeed)
		for _, form := range kernelForms {
			where := strings.NewReplacer("$1", strconv.Itoa(int(c1)), "$2", strconv.Itoa(int(c2))).Replace(form.where)
			b, preds := bindWhere(t, e, form.table, where, false)
			p := preds[0]
			kernel, ok := b.compileTri(0, p)
			if !ok {
				t.Fatalf("%s: no kernel", where)
			}
			n := db.Table(form.table).NumRows()
			sel := allRows(n)
			for i := n - 1; i > 0; i-- {
				j := s.Intn(i + 1)
				sel[i], sel[j] = sel[j], sel[i]
			}
			sel = sel[:s.Intn(n+1)]
			if out, bad, want := checkKernel(b, 0, p, kernel, sel); bad >= 0 {
				t.Fatalf("seed %d: %s on row %d: kernel %d, eval %d (row %v)",
					seed, where, sel[bad], out[bad], want, db.Table(form.table).Row(int(sel[bad])))
			}
		}
		ve := valueEngine(valueDB(seed%512, 1+int(selSeed%400)))
		for _, form := range bitmapForms {
			where := strings.NewReplacer("$1", strconv.Itoa(int(c1)), "$2", strconv.Itoa(int(c2))).Replace(form)
			b, preds := bindWhere(t, ve, "v", where, true)
			checkSelect(t, fmt.Sprintf("seed %d: %s", seed, where), b, 0, preds)
		}
	})
}
