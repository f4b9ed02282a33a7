package exec

import (
	"slices"
	"strconv"
	"testing"

	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

// String-predicate kernels against bexpr.eval, over both layouts a
// string column can have. TestKernelsEqualEvalAllTemplates covers the
// shapes the templates use on the data dsdgen draws; these tables put
// NULLs, the empty string, literals no row holds and a column that
// changes layout between two runs under every form.

// strPreds is every single-table string predicate form a kernel exists
// for, over columns s and s2.
var strPreds = []string{
	"s = 'apple'", "s <> 'apple'", "s < 'b'", "s <= 'apple'", "s > 'apple'", "s >= 'b'", "'b' > s",
	"s = ''", "s <> ''", "s < ''", "s = 'absent'", "s <> 'absent'", "s > 'absent'",
	"s BETWEEN 'a' AND 'b'", "s NOT BETWEEN 'a' AND 'b'", "s BETWEEN 'x' AND 'a'", "s BETWEEN '' AND 'absent'",
	"s IN ('apple', 'M')", "s NOT IN ('apple', 'M')", "s IN ('apple', NULL)", "s NOT IN ('apple', NULL)",
	"s IN ('absent')", "s NOT IN ('absent', NULL)", "s IN ('')",
	"s LIKE 'ap%'", "s NOT LIKE 'ap%'", "s LIKE '%a%'", "s LIKE '_'", "s LIKE ''", "s LIKE 'absent%'",
	"NOT (s = 'apple')", "NOT (s IN ('apple', NULL))", "NOT (s LIKE 'ap%')", "NOT (s BETWEEN 'a' AND 'b')",
	"s = s2", "s <> s2", "s < s2", "s >= s2",
	"s = 'apple' OR s2 = 'M'", "s <> 'apple' AND s2 IN ('M', NULL)",
}

// strTable creates table name(k, s, s2) in db. Column s takes s(i) for
// row i, s2 cycles through a few values; "NULL" stands for NULL.
func strTable(db *storage.DB, name string) *storage.Table {
	return db.Create(&schema.Table{Name: name, Kind: schema.Dimension, Columns: []schema.Column{
		{Name: "k", Type: schema.Identifier},
		{Name: "s", Type: schema.Varchar, Len: 20, Nullable: true},
		{Name: "s2", Type: schema.Varchar, Len: 20, Nullable: true},
	}})
}

func strRows(t *storage.Table, n int, s func(i int) string) {
	val := func(x string) storage.Value {
		if x == "NULL" {
			return storage.Null
		}
		return storage.Str(x)
	}
	few := []string{"apple", "M", "", "NULL", "banana"}
	for i := 0; i < n; i++ {
		t.Append([]storage.Value{storage.Int(int64(t.NumRows())), val(s(i)), val(few[i%len(few)])})
	}
}

// dictionary reports whether column c of t is dictionary-encoded.
func dictionary(t *storage.Table, c int) bool {
	_, _, _, _, codes, _, _ := t.Col(c).Raw()
	return codes != nil
}

// kernelEqualsEval compiles pred over table into a program, runs it
// over every row and requires, row by row, the value
// bexpr.eval gives: true, false or UNKNOWN. It returns the kernel's
// answers.
func kernelEqualsEval(t *testing.T, e *Engine, table, pred string) []int8 {
	t.Helper()
	b, preds := bindWhere(t, e, table, pred, false)
	tab := b.tableAt(0).tab
	out, bad, want := checkKernel(b, 0, preds[0], allRows(tab.NumRows()))
	if bad >= 0 {
		t.Fatalf("%s on %s row %d (%v): kernel %d, eval %d", pred, table, bad, tab.Row(bad), out[bad], want)
	}
	return out
}

// TestStringKernelsEqualEval: every form, on a dictionary column and on
// a plain one.
func TestStringKernelsEqualEval(t *testing.T) {
	db := storage.NewDB()
	few := []string{"apple", "apricot", "", "NULL", "M", "F", "banana", "a%b", "b"}
	dict := strTable(db, "d")
	strRows(dict, 600, func(i int) string { return few[(i*7+i/9)%len(few)] })
	plain := strTable(db, "p")
	strRows(plain, 600, func(i int) string {
		if i%10 < 3 {
			return few[i%len(few)]
		}
		return "v" + strconv.Itoa(i)
	})
	if !dictionary(dict, 1) || dictionary(plain, 1) || !dictionary(plain, 2) {
		t.Fatalf("layouts: d.s dictionary %v, p.s dictionary %v, p.s2 dictionary %v; want true false true",
			dictionary(dict, 1), dictionary(plain, 1), dictionary(plain, 2))
	}
	e := New(db)
	for _, table := range []string{"d", "p"} {
		for _, pred := range strPreds {
			out := kernelEqualsEval(t, e, table, pred)
			if pred == "s = 'apple'" && !slices.Contains(out, 1) || pred == "s IN ('apple', NULL)" && !slices.Contains(out, -1) {
				t.Errorf("%s on %s selects nothing or knows everything: the table does not exercise it", pred, table)
			}
		}
	}
}

// TestStringKernelOutsideDictionaryPanics: a code with no entry in the
// dictionary the kernel's truth table was built from (a stale table, a
// corrupt column) must fail the query, not read as UNKNOWN and drop the
// row without a trace.
func TestStringKernelOutsideDictionaryPanics(t *testing.T) {
	cr := &colReader{kind: storage.KindString, codes: []uint16{0, 2}, dict: []string{"apple", "M"}, nulls: []bool{false, false}}
	col := vnode{kind: cr.kind, dict: cr.dict, val: func(_ *frame, sel []int32) view { return view{cr, sel} }}
	kernel := strTest(col, func(s string) int8 { return b2t(s == "apple") })
	out := make([]int8, 2)
	defer func() {
		if recover() == nil {
			t.Errorf("code 2 over a 2-entry dictionary answered %v instead of panicking", out)
		}
	}()
	kernel(newFrame(0), []int32{0, 1}, out)
}

// TestStringKernelsAcrossDemotion: the same predicates before and after
// a column gives its dictionary up. The rows that were there answer the
// same; the new ones answer as eval says.
func TestStringKernelsAcrossDemotion(t *testing.T) {
	db := storage.NewDB()
	tab := strTable(db, "g")
	strRows(tab, 300, func(i int) string {
		if i%50 == 0 {
			return []string{"apple", "", "NULL"}[i/50%3]
		}
		return "w" + strconv.Itoa(i%200)
	})
	if !dictionary(tab, 1) {
		t.Fatal("200 values over 300 rows: not a dictionary column")
	}
	e := New(db)
	before := map[string][]int8{}
	for _, pred := range strPreds {
		before[pred] = kernelEqualsEval(t, e, "g", pred)
	}
	strRows(tab, 400, func(i int) string { return "x" + strconv.Itoa(i) })
	if dictionary(tab, 1) {
		t.Fatal("600 values over 700 rows: still a dictionary column")
	}
	for _, pred := range strPreds {
		if after := kernelEqualsEval(t, e, "g", pred); !slices.Equal(after[:300], before[pred]) {
			t.Errorf("%s: the first 300 rows answer differently once the column is plain", pred)
		}
	}
}
