package exec

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"tpcds/internal/qgen"
	"tpcds/internal/queries"
	"tpcds/internal/rng"
	"tpcds/internal/sql"
	"tpcds/internal/storage"
)

// Vector programs against bexpr.eval. The executor has one
// configuration, so nothing here compares the engine with itself: every
// program node's answer is checked against eval on a row read through
// Table.Get (which FuzzColumnOps checks against a slice model), not
// through the colReader vectors the programs read; the partition
// identities need no oracle at all; and the batch scanner is called
// directly at the batch sizes around a boundary.

// triOf is a value's three-valued truth in a kernel's encoding: 1 true,
// 0 false, -1 unknown.
func triOf(v storage.Value) int8 {
	if !v.IsNull() {
		return b2t(v.AsInt() != 0)
	}
	return -1
}

// evalTri is bexpr.eval's three-valued answer for p on row.
func evalTri(p bexpr, row []storage.Value) int8 { return triOf(p.eval(row)) }

// evalRow fills the slots of row that cols read with row r of table ti,
// through Table.Get.
func evalRow(b *binder, ti int, cols []*colExpr, r int32, row []storage.Value) {
	inst := b.tableAt(ti)
	for _, c := range cols {
		row[c.off] = inst.tab.Get(int(r), c.off-inst.offset)
	}
}

// evalPasses returns whether every predicate holds, by eval, for a row
// of table ti.
func evalPasses(b *binder, ti int, preds []bexpr) func(r int32) bool {
	row, cols := make([]storage.Value, b.total), exprCols(preds...)
	return func(r int32) bool {
		evalRow(b, ti, cols, r, row)
		for _, p := range preds {
			if evalTri(p, row) != 1 {
				return false
			}
		}
		return true
	}
}

// vecChecker is an Engine.vecHook holding every batch of every program
// node to bexpr.eval at the same positions — on the row the frame's
// binding names, its table columns read through Table.Get, or on the
// aggregated layout's row: the value (kind, NULL, float bits) or the
// three-valued truth, and eval's kind to the node's typ().
type vecChecker struct {
	mu          sync.Mutex
	nodes, rows int
	bad         []string
}

// checkPrograms installs a vecChecker on e.
func checkPrograms(e *Engine) *vecChecker {
	c := &vecChecker{}
	e.vecHook = c.check
	return c
}

func (c *vecChecker) check(b *binder, e bexpr, fr *frame, sel []int32, v view, tri []int8) {
	cols, row := exprCols(e), make([]storage.Value, b.total)
	var bad []string
	for j, p := range sel {
		r := row
		if fr.vals != nil {
			r = fr.vals[p]
		} else {
			for _, col := range cols {
				ti, id := bitIndex(col.tblBit), p
				if ti < len(fr.ids) && fr.ids[ti] != nil {
					id = fr.ids[ti][p]
				}
				r[col.off] = storage.Null
				if inst := b.tableAt(ti); id >= 0 {
					r[col.off] = inst.tab.Get(int(id), col.off-inst.offset)
				}
			}
		}
		want, kind := e.eval(r), kindOf(e.typ())
		if ce, ok := e.(*colExpr); ok && ce.tblBit == 0 {
			want = conform(want, kind) // an aggregated layout slot: a UNION ALL's column holds each block's kind
		}
		switch {
		case !want.IsNull() && want.K != kind:
			bad = append(bad, fmt.Sprintf("%s: eval gives a %v, typ() says %v", describeExpr(b, e), want.K, kind))
		case tri != nil && tri[j] != triOf(want):
			bad = append(bad, fmt.Sprintf("%s at position %d: program %d, eval %d", describeExpr(b, e), p, tri[j], triOf(want)))
		case tri == nil && !sameValue(v.cr.value(v.idx[j]), want):
			bad = append(bad, fmt.Sprintf("%s at position %d: program %v, eval %v", describeExpr(b, e), p, v.cr.value(v.idx[j]), want))
		}
		if len(bad) > 0 {
			break
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nodes++
	c.rows += len(sel)
	if len(c.bad) < 20 {
		c.bad = append(c.bad, bad...)
	}
}

// report fails t with the disagreements seen, labelled.
func (c *vecChecker) report(t *testing.T, label string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, b := range c.bad {
		t.Errorf("%s: %s", label, b)
	}
	c.bad = nil
}

// runTri compiles p and runs it over sel in batches of batch, returning
// its three-valued answers.
func runTri(b *binder, p bexpr, sel []int32, batch int) []int8 {
	tf := b.compileFilter([]bexpr{p})
	fr, out := newFrame(tf.slots), make([]int8, len(sel))
	for lo := 0; lo < len(sel); lo += batch {
		hi := min(lo+batch, len(sel))
		tf.kernels[0](fr, sel[lo:hi], out[lo:hi])
	}
	return out
}

// checkKernel runs p's program over sel and compares every answer with
// bexpr.eval on the same row. It returns the program's answers, the
// first position where they disagree (-1 when none does) and eval's
// answer there.
func checkKernel(b *binder, ti int, p bexpr, sel []int32) (out []int8, bad int, want int8) {
	out = runTri(b, p, sel, batchLen)
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

// TestKernelsEqualEvalAllTemplates holds every node of every vector
// program to bexpr.eval. First every local predicate of the 99
// templates — reached the way runStatement reaches it, CTE bodies and
// subqueries included — on every row of its table (a predicate text
// repeated on the same table is checked once). Then every template runs,
// and every program of every operator —
// local, residual and ON predicates, group keys, aggregate and window
// arguments, HAVING, projections and sort keys — is checked on the rows
// it runs over.
func TestKernelsEqualEvalAllTemplates(t *testing.T) {
	if testing.Short() {
		t.Skip("all-99 program check skipped in -short; FuzzKernelEqualsEval's seeds still run")
	}
	db := templateDB()
	walk := New(db)
	local := checkPrograms(walk)
	type key struct {
		tab  *storage.Table
		cond string
	}
	seen := map[key]bool{}
	for _, tpl := range queries.All() {
		for _, lp := range templatePreds(t, walk, tpl) {
			inst := lp.b.tableAt(lp.ti)
			if k := (key{inst.tab, lp.cond.Render()}); !seen[k] {
				seen[k] = true
				runTri(lp.b, lp.p, allRows(inst.tab.NumRows()), batchLen)
			}
		}
		local.report(t, fmt.Sprintf("q%02d local predicates", tpl.ID))
	}
	t.Logf("%d distinct local predicates: %d node batches, %d node rows checked", len(seen), local.nodes, local.rows)
	if len(seen) == 0 {
		t.Error("no local predicate in any template: the walk lost its way")
	}
	e := New(db)
	c := checkPrograms(e)
	for _, tpl := range queries.All() {
		text, err := qgen.Instantiate(tpl, qgen.StreamSeed(1, 0, tpl.ID))
		if err != nil {
			t.Fatalf("query %d: %v", tpl.ID, err)
		}
		if _, err := e.Query(text); err != nil {
			t.Fatalf("query %d: %v", tpl.ID, err)
		}
		c.report(t, fmt.Sprintf("q%02d", tpl.ID))
	}
	t.Logf("queries: %d node batches, %d node rows checked", c.nodes, c.rows)
}

// countWhere runs SELECT COUNT(*) FROM from [WHERE where] through e.
func countWhere(t *testing.T, e *Engine, from, where string) int64 {
	t.Helper()
	q := "SELECT COUNT(*) FROM " + from
	if where != "" {
		q += " WHERE " + where
	}
	return count(t, e, q)
}

// count runs a query whose one result is a count.
func count(t *testing.T, e *Engine, q string) int64 {
	t.Helper()
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
// is the table's row count. The identity
// needs no oracle; it fails when a kernel and its negation disagree on
// which rows are UNKNOWN, or when batches drop or repeat rows.
func TestPartitionIdentityAllTemplates(t *testing.T) {
	if testing.Short() {
		t.Skip("all-99 partition identity skipped in -short")
	}
	db := templateDB()
	e := New(db)
	walk := New(db)
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
			tr, fa, un := countWhere(t, e, from, p), countWhere(t, e, from, "NOT ("+p+")"), countWhere(t, e, from, "("+p+") IS NULL")
			if tr+fa+un != n {
				t.Errorf("q%02d %s over %s: %d true + %d false + %d unknown = %d, table has %d rows",
					tpl.ID, p, from, tr, fa, un, tr+fa+un, n)
			}
		}
	}
	t.Logf("%d distinct predicates partition their tables", checked)
}

// postJoinPreds are predicates over f and d joined (randDB) that run as
// residual or ON programs: arithmetic, division by zero, CASE on a
// dictionary and off it, COALESCE, ABS, a BETWEEN with computed bounds,
// string concatenation and comparisons across the two tables.
var postJoinPreds = []string{
	"f_v > d_g * 10",
	"f_m / (f_v - d_g * 20) > 1",
	"CASE WHEN f_v > 50 THEN d_s ELSE 's1' END = 's1'",
	"CASE WHEN f_v < 30 THEN 'lo' WHEN d_g > 2 THEN 'hi' END <> 'hi'",
	"COALESCE(f_v, d_g) > 3",
	"ABS(f_v - 50) < d_g * 5",
	"f_v BETWEEN d_g AND d_g * 20",
	"d_s || f_v LIKE 's1%'",
	"f_m > f_v OR d_g IS NULL",
}

// havingPreds are HAVING conditions over the groups of f ⋈ d by d_s,
// d_g, some UNKNOWN for a group.
var havingPreds = []string{
	"SUM(f_m) > 300",
	"MAX(f_v) - d_g * 10 > 40",
	"AVG(f_v) IS NULL OR COUNT(*) > 3",
	"MIN(f_v) BETWEEN d_g AND 30",
	"CASE WHEN d_s = 's1' THEN SUM(f_m) END > 100",
}

// TestPartitionIdentityPostJoin is the three-valued partition through
// the programs after the scan: the rows of f ⋈ d through a residual
// predicate (WHERE p, NOT (p), (p) IS NULL), the candidate pairs of a
// LEFT JOIN through its ON condition (COUNT(d_k) counts the pairs that
// joined), and the groups through HAVING each sum to the total. The
// joined pairs span several batches.
func TestPartitionIdentityPostJoin(t *testing.T) {
	db := randDB(17, 3*batchLen, 40)
	e := New(db)
	pairs := countWhere(t, e, "f, d", "f_k = d_k")
	if pairs <= 2*batchLen {
		t.Fatalf("%d joined pairs fill no more than two batches", pairs)
	}
	for _, p := range postJoinPreds {
		var where, on int64
		for _, q := range []string{p, "NOT (" + p + ")", "(" + p + ") IS NULL"} {
			where += countWhere(t, e, "f, d", "f_k = d_k AND "+q)
			on += count(t, e, "SELECT COUNT(d_k) FROM f LEFT JOIN d ON f_k = d_k AND "+q)
		}
		if where != pairs || on != pairs {
			t.Errorf("%s: residual partition %d, ON partition %d, %d joined pairs", p, where, on, pairs)
		}
	}
	const groups = "SELECT d_s, d_g FROM f, d WHERE f_k = d_k GROUP BY d_s, d_g"
	all := count(t, e, "WITH h AS ("+groups+") SELECT COUNT(*) FROM h")
	for _, p := range havingPreds {
		var sum int64
		for _, q := range []string{p, "NOT (" + p + ")", "(" + p + ") IS NULL"} {
			sum += count(t, e, "WITH h AS ("+groups+" HAVING "+q+") SELECT COUNT(*) FROM h")
		}
		if sum != all {
			t.Errorf("HAVING %s: the partition has %d groups, the grouping %d", p, sum, all)
		}
	}
}

// TestSharedDictionaryIdentity: comparing two bindings of one
// dictionary column compares codes, and grouping on a dictionary
// column numbers groups by code; `|| ”` forces both off the codes, onto
// decoded strings, and must not change a result.
func TestSharedDictionaryIdentity(t *testing.T) {
	db := randDB(5, 500, 30)
	if !dictionary(db.Table("d"), 2) {
		t.Fatal("d_s is not a dictionary column: the test compares nothing")
	}
	e := New(db)
	for _, q := range []string{
		"SELECT COUNT(*) FROM d a, d b WHERE a.d_g = b.d_g AND a.d_s <> b.d_s%s",
		"SELECT COUNT(*) FROM d a, d b WHERE a.d_g = b.d_g AND a.d_s = b.d_s%s",
		"SELECT COUNT(*) FROM f, d a, d b WHERE f_k = a.d_k AND f_v = b.d_k AND a.d_s <> b.d_s%s",
		"SELECT a.d_s%[1]s s, COUNT(*) c, SUM(f_m) m FROM f, d a WHERE f_k = a.d_k GROUP BY a.d_s%[1]s ORDER BY s",
		"SELECT DISTINCT a.d_s%[1]s s FROM d a ORDER BY s",
	} {
		want, err := e.Query(fmt.Sprintf(q, " || ''"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Query(fmt.Sprintf(q, ""))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Rows, got.Rows) {
			t.Errorf("%s: on codes %v, on strings %v", fmt.Sprintf(q, ""), got.Rows, want.Rows)
		}
	}
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
	// Comparison kernels alone, arithmetic programs alone, and both in
	// one filter.
	filters := []string{
		"f_v BETWEEN 10 AND 60",
		"f_v IS NULL OR f_v > 90",
		"f_v + 1 > 50",
		"f_m > 42.5 AND f_v <> 7 AND f_v * 2 < 150",
	}
	for _, where := range filters {
		b, preds := bindWhere(t, e, "f", where, true)
		tf, keeps := b.compileFilter(preds), evalPasses(b, 0, preds)
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

// kernelForms are single-table predicate forms over randDB's and
// valueDB's tables — comparisons either way round, BETWEEN, IN with and
// without a NULL member, LIKE, IS NULL, NOT, AND/OR, column against
// column, and value programs inside them: arithmetic, / by zero,
// date ± int and date - date, CASE on codes and off them, COALESCE,
// ABS, ROUND, SUBSTR and || — with $1 and $2 standing for fuzzed
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
	{"f", "f_v + $1 > f_m"},
	{"f", "f_m / (f_v - $1) >= 1"},
	{"f", "(f_v * f_k - $2) / $1 < 100"},
	{"f", "-f_v < $1"},
	{"f", "CASE WHEN f_v > $1 THEN f_m WHEN f_v IS NULL THEN $2 END > 10"},
	{"f", "CASE WHEN f_v < $1 THEN 'lo' WHEN f_v < $2 THEN 'mid' ELSE 'hi' END = 'mid'"},
	{"f", "COALESCE(f_v, f_k, $1) = $2"},
	{"f", "ABS(f_v - $1) <= $2 OR ABS(f_m - $1.5) > 3"},
	{"f", "ROUND(f_m / 3, 1) > $1 AND ROUND(f_m * $2) <> f_m"},
	{"f", "f_v BETWEEN f_k - $1 AND f_k + $2"},
	{"d", "d_s LIKE 's_'"},
	{"d", "d_s NOT LIKE '%$1'"},
	{"d", "d_s IN ('s$1', 's2')"},
	{"d", "d_s NOT IN ('s$1', NULL)"},
	{"d", "NOT (d_g = $1)"},
	{"d", "d_s = 's$1'"},
	{"d", "d_s < 's$1'"},
	{"d", "d_s BETWEEN 's0' AND 's$1'"},
	{"d", "d_g IN ($1, $2) AND d_s <> 's1'"},
	{"d", "SUBSTR(d_s, $1, 2) = 's'"},
	{"d", "SUBSTR(d_s, 1, $2) || 'x' LIKE 's%x'"},
	{"d", "d_s || d_g = 's1$1'"},
	{"d", "d_s || d_g IN ('s1$1', 's2$2')"},
	{"v", "v_d + $1 > v_d - $2"},
	{"v", "v_d - (v_d - v_i) = v_i + $1"},
	{"v", "v_d + v_i BETWEEN v_d AND v_d + $2"},
	{"v", "COALESCE(v_s, 'z') IN ('z', 's$1')"},
	{"v", "UPPER(v_s) = 'S$1' OR LOWER(UPPER(v_s)) < 's$2'"},
	{"v", "CASE WHEN v_i > $1 THEN v_s ELSE 'x' END <> 's1'"},
	{"v", "CASE WHEN v_f > $1 THEN v_d END > v_d - $2"},
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
// over random databases and feeds its program a random selection vector
// — a subset of the rows in any order, of any length from 0 to all of
// them, in batches of a random size — requiring every node's answer at
// every position to equal bexpr.eval's on that row. Then every bitmap
// form with the same constants over a random valueDB must select what
// the kernels and eval select.
func FuzzKernelEqualsEval(f *testing.F) {
	f.Add(uint64(1), int8(10), int8(60), uint64(1))
	f.Add(uint64(2), int8(0), int8(99), uint64(2))
	f.Add(uint64(3), int8(50), int8(50), uint64(3))
	f.Add(uint64(42), int8(-3), int8(2), uint64(4))
	f.Fuzz(func(t *testing.T, seed uint64, c1, c2 int8, selSeed uint64) {
		e := New(randDB(seed%512, 200, 10))
		ve := New(valueDB(seed%512, 1+int(selSeed%400)))
		checks := []*vecChecker{checkPrograms(e), checkPrograms(ve)}
		s := rng.NewStream(selSeed)
		for _, form := range kernelForms {
			where := strings.NewReplacer("$1", strconv.Itoa(int(c1)), "$2", strconv.Itoa(int(c2))).Replace(form.where)
			eng := e
			if form.table == "v" {
				eng = ve
			}
			b, preds := bindWhere(t, eng, form.table, where, false)
			n := b.tableAt(0).tab.NumRows()
			sel := allRows(n)
			for i := n - 1; i > 0; i-- {
				j := s.Intn(i + 1)
				sel[i], sel[j] = sel[j], sel[i]
			}
			sel = sel[:s.Intn(n+1)]
			runTri(b, preds[0], sel, 1+s.Intn(64))
			for _, c := range checks {
				c.report(t, fmt.Sprintf("seed %d: %s", seed, where))
			}
		}
		for _, form := range bitmapForms {
			where := strings.NewReplacer("$1", strconv.Itoa(int(c1)), "$2", strconv.Itoa(int(c2))).Replace(form)
			b, preds := bindWhere(t, ve, "v", where, true)
			checkSelect(t, fmt.Sprintf("seed %d: %s", seed, where), b, 0, preds)
		}
	})
}
