package storage

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"tpcds/internal/schema"
)

func testDef() *schema.Table {
	return &schema.Table{
		Name: "t", Kind: schema.Dimension,
		Columns: []schema.Column{
			{Name: "k", Type: schema.Identifier},
			{Name: "n", Type: schema.Integer, Nullable: true},
			{Name: "amt", Type: schema.Decimal, Nullable: true},
			{Name: "name", Type: schema.Char, Len: 20, Nullable: true},
			{Name: "d", Type: schema.Date, Nullable: true},
		},
		PrimaryKey: []string{"k"},
	}
}

func TestAppendGetRoundTrip(t *testing.T) {
	tb := NewTable(testDef())
	d, _ := ParseDate("2000-11-15")
	tb.Append([]Value{Int(1), Int(42), Float(9.5), Str("abc"), DateV(d)})
	tb.Append([]Value{Int(2), Null, Null, Null, Null})
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want 2", tb.NumRows())
	}
	if got := tb.Get(0, 1); got.AsInt() != 42 {
		t.Errorf("Get(0,1) = %v", got)
	}
	if got := tb.Get(0, 4); got.String() != "2000-11-15" {
		t.Errorf("date round trip = %q", got.String())
	}
	for c := 1; c < 5; c++ {
		if !tb.Get(1, c).IsNull() {
			t.Errorf("row 1 col %d should be NULL", c)
		}
	}
}

func TestAppendWrongWidthPanics(t *testing.T) {
	tb := NewTable(testDef())
	defer func() {
		if recover() == nil {
			t.Fatal("short row did not panic")
		}
	}()
	tb.Append([]Value{Int(1)})
}

func TestAppendWrongKindPanics(t *testing.T) {
	tb := NewTable(testDef())
	defer func() {
		if recover() == nil {
			t.Fatal("string into int column did not panic")
		}
	}()
	tb.Append([]Value{Str("oops"), Int(1), Float(1), Str("x"), Null})
}

func TestUpdateAndSetValue(t *testing.T) {
	tb := NewTable(testDef())
	tb.Append([]Value{Int(1), Int(10), Float(1), Str("a"), Null})
	tb.SetValue(0, 1, Int(20))
	tb.SetValue(0, 3, Str("b"))
	if tb.Get(0, 1).AsInt() != 20 || tb.Get(0, 3).S != "b" {
		t.Error("SetValue did not apply")
	}
	tb.SetValue(0, 1, Null)
	if !tb.Get(0, 1).IsNull() {
		t.Error("SetValue to NULL failed")
	}
	tb.SetValue(0, 1, Int(30))
	if tb.Get(0, 1).AsInt() != 30 {
		t.Error("SetValue back from NULL failed")
	}
}

func TestDeleteCompacts(t *testing.T) {
	tb := NewTable(testDef())
	for i := 0; i < 10; i++ {
		tb.Append([]Value{Int(int64(i)), Int(int64(i * 10)), Float(0), Str("r"), Null})
	}
	removed := tb.Delete([]int{2, 3, 4, 3, 99, -1})
	if removed != 3 {
		t.Fatalf("Delete removed %d, want 3", removed)
	}
	if tb.NumRows() != 7 {
		t.Fatalf("NumRows = %d after delete, want 7", tb.NumRows())
	}
	want := []int64{0, 1, 5, 6, 7, 8, 9}
	for i, k := range want {
		if got := tb.Get(i, 0).AsInt(); got != k {
			t.Errorf("row %d key = %d, want %d", i, got, k)
		}
	}
	if tb.Delete(nil) != 0 {
		t.Error("Delete(nil) should remove nothing")
	}
}

// deleteDef is a table whose columns cover Delete's vectors: an int key
// and a dictionary string column without a null vector, an int column
// with one, a decimal column, and a plain string column.
func deleteDef() *schema.Table {
	return &schema.Table{Name: "del", Kind: schema.Dimension, Columns: []schema.Column{
		{Name: "k", Type: schema.Identifier},
		{Name: "n", Type: schema.Integer, Nullable: true},
		{Name: "f", Type: schema.Decimal},
		{Name: "d", Type: schema.Char, Len: 1},
		{Name: "p", Type: schema.Varchar, Len: 20},
	}}
}

// TestDeleteModel holds Table.Delete to a model — the rows whose ids
// the call does not name, in order — over unsorted ids, duplicates,
// ids out of range, the first, the last and every row, adjacent and
// single-row runs. Each call must keep every vector's capacity and
// layout, leave a missing null vector missing, raise the epoch by
// exactly one when it removes a row (by none otherwise) and leave the
// caller's ids as they were.
func TestDeleteModel(t *testing.T) {
	const n = 600 // past dictTrial, so that p, all distinct, is plain
	build := func() (*Table, [][]Value) {
		tb := NewTable(deleteDef())
		var model [][]Value
		for i := 0; i < n; i++ {
			nv := Int(int64(i * 10))
			if i%7 == 3 {
				nv = Null
			}
			row := []Value{Int(int64(i)), nv, Float(float64(i) / 4), Str(string(rune('a' + i%3))), Str("p" + strconv.Itoa(i))}
			tb.Append(row)
			model = append(model, row)
		}
		return tb, model
	}
	every := make([]int, n)
	for i := range every {
		every[i] = n - 1 - i
	}
	cases := map[string][]int{
		"unsorted with duplicates and out of range": {17, 5, 300, -1, 5, n, 2, 1 << 40, 17, 599},
		"first row":                 {0},
		"last row":                  {n - 1},
		"every row":                 every,
		"adjacent runs":             {10, 11, 12, 13, 20, 21, 22, 23, 24, 25},
		"single-row runs":           {1, 3, 5, 7, 400},
		"sorted with duplicates":    {4, 4, 9, 9, 9},
		"none in range":             {-3, n, n + 1},
		"empty":                     nil,
		"the first and last halves": append(slicesRange(0, 100), slicesRange(500, 600)...),
	}
	for name, ids := range cases {
		tb, model := build()
		before := slices.Clone(ids)
		victim := map[int]bool{}
		for _, id := range ids {
			victim[id] = true
		}
		var want [][]Value
		for r, row := range model {
			if !victim[r] {
				want = append(want, row)
			}
		}
		type shape struct{ payload, nulls int }
		shapes := func() []shape {
			var out []shape
			for c := 0; c < tb.NumCols(); c++ {
				_, ints, flts, strs, codes, _, nulls := tb.Col(c).Raw()
				s := shape{cap(ints) + cap(flts) + cap(strs) + cap(codes), -1}
				if nulls != nil {
					s.nulls = cap(nulls)
				}
				out = append(out, s)
			}
			return out
		}
		caps, epoch := shapes(), tb.Epoch()
		if !DictLayout(tb.Col(3)) || DictLayout(tb.Col(4)) {
			t.Fatalf("%s: column d must be dictionary-coded and p plain", name)
		}
		removed := tb.Delete(ids)
		if removed != n-len(want) {
			t.Errorf("%s: Delete removed %d rows, want %d", name, removed, n-len(want))
		}
		if rise := tb.Epoch() - epoch; rise != uint64(min(removed, 1)) {
			t.Errorf("%s: the epoch rose by %d", name, rise)
		}
		if !slices.Equal(ids, before) {
			t.Errorf("%s: Delete changed its argument to %v", name, ids)
		}
		if got := shapes(); !slices.Equal(got, caps) {
			t.Errorf("%s: capacities and null vectors %v, before the delete %v", name, got, caps)
		}
		if !DictLayout(tb.Col(3)) || DictLayout(tb.Col(4)) {
			t.Errorf("%s: Delete changed a string column's layout", name)
		}
		if tb.NumRows() != len(want) {
			t.Fatalf("%s: %d rows, want %d", name, tb.NumRows(), len(want))
		}
		for c := 0; c < tb.NumCols(); c++ {
			if tb.Col(c).Len() != len(want) {
				t.Fatalf("%s: column %d holds %d rows, want %d", name, c, tb.Col(c).Len(), len(want))
			}
		}
		for r, row := range want {
			for c, v := range row {
				if got := tb.Get(r, c); !sameValue(got, v) {
					t.Fatalf("%s: row %d column %d reads %#v, want %#v", name, r, c, got, v)
				}
			}
		}
	}
}

// slicesRange returns lo, lo+1, ..., hi-1.
func slicesRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

func TestFlatFileRoundTrip(t *testing.T) {
	tb := NewTable(testDef())
	d, _ := ParseDate("1999-02-21")
	tb.Append([]Value{Int(1), Int(5), Float(3.25), Str("hello world"), DateV(d)})
	tb.Append([]Value{Int(2), Null, Null, Null, Null})
	var buf bytes.Buffer
	if err := tb.WriteFlat(&buf); err != nil {
		t.Fatal(err)
	}
	want := "1|5|3.25|hello world|1999-02-21|\n2|||||\n"
	if buf.String() != want {
		t.Fatalf("flat output %q, want %q", buf.String(), want)
	}
	tb2 := NewTable(testDef())
	n, err := tb2.ReadFlat(strings.NewReader(buf.String()))
	if err != nil || n != 2 {
		t.Fatalf("ReadFlat = %d rows, err %v", n, err)
	}
	for r := 0; r < 2; r++ {
		for c := 0; c < 5; c++ {
			if !Equal(tb.Get(r, c), tb2.Get(r, c)) {
				t.Errorf("round trip mismatch at (%d,%d): %v vs %v", r, c, tb.Get(r, c), tb2.Get(r, c))
			}
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Float(2.5), Int(2), 1},
		{Str("a"), Str("b"), -1},
		{Null, Int(0), -1},
		{Int(0), Null, 1},
		{Null, Null, 0},
		{DateV(100), DateV(99), 1},
		{DateV(100), Int(100), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareIncomparablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("string vs int compare did not panic")
		}
	}()
	Compare(Str("a"), Int(1))
}

func TestGroupKeyInjective(t *testing.T) {
	vals := []Value{
		Null, Int(0), Int(1), Int(-1), Float(0), Float(1.5),
		Str(""), Str("0"), Str("a"), DateV(0), DateV(1),
	}
	seen := map[string]Value{}
	for _, v := range vals {
		k := v.GroupKey()
		if prev, dup := seen[k]; dup {
			t.Errorf("GroupKey collision between %v and %v", prev, v)
		}
		seen[k] = v
	}
}

func TestDB(t *testing.T) {
	db := NewDB()
	def := testDef()
	tb := db.Create(def)
	tb.Append([]Value{Int(1), Int(1), Float(1), Str("x"), Null})
	if db.Table("t") != tb {
		t.Error("Table lookup failed")
	}
	if db.Table("missing") != nil {
		t.Error("missing table should be nil")
	}
	if got := db.Names(); len(got) != 1 || got[0] != "t" {
		t.Errorf("Names = %v", got)
	}
	if db.TotalRows() != 1 {
		t.Errorf("TotalRows = %d", db.TotalRows())
	}
}

func TestDateHelpers(t *testing.T) {
	if d := DaysFromYMD(1900, 1, 1); d != 0 {
		t.Errorf("epoch day = %d, want 0", d)
	}
	y, m, dd := YMDFromDays(0)
	if y != 1900 || m != 1 || dd != 1 {
		t.Errorf("YMDFromDays(0) = %d-%d-%d", y, m, dd)
	}
	// 1900-01-01 was a Monday.
	if DayName(0) != "Monday" {
		t.Errorf("1900-01-01 was a %s?", DayName(0))
	}
	if DayName(6) != "Sunday" {
		t.Errorf("1900-01-07 was a %s?", DayName(6))
	}
	// date_dim covers 1900-01-01 .. 2099-12-31 = 73049 days.
	if d := DaysFromYMD(2100, 1, 1); d != DateDimRows {
		t.Errorf("days to 2100-01-01 = %d, want %d", d, DateDimRows)
	}
	if !IsLeapYear(2000) || IsLeapYear(1900) || IsLeapYear(2001) || !IsLeapYear(1996) {
		t.Error("IsLeapYear broken")
	}
	if DateSK(0) != 1 || DaysFromSK(1) != 0 {
		t.Error("DateSK round trip broken")
	}
}

func TestParseDateErrors(t *testing.T) {
	if _, err := ParseDate("2000-13-01"); err == nil {
		t.Error("month 13 should fail")
	}
	if _, err := ParseDate("garbage"); err == nil {
		t.Error("garbage should fail")
	}
}

// Property: date formatting and parsing round trip over the full
// date_dim range.
func TestQuickDateRoundTrip(t *testing.T) {
	f := func(n uint32) bool {
		days := int64(n % DateDimRows)
		parsed, err := ParseDate(FormatDate(days))
		return err == nil && parsed == days
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: flat-file field formatting round trips for every kind.
func TestQuickFieldRoundTrip(t *testing.T) {
	f := func(i int64, fl float64, s string) bool {
		if strings.ContainsAny(s, "|\n") {
			return true // separator chars are not legal field content
		}
		iv, err := ParseField(Int(i).String(), schema.Integer)
		if err != nil || iv.AsInt() != i {
			return false
		}
		sv, err := ParseField(Str(s).String(), schema.Char)
		if err != nil {
			return false
		}
		if s == "" {
			return sv.IsNull() // empty string encodes NULL by design
		}
		return sv.S == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScanInt64(t *testing.T) {
	tb := NewTable(testDef())
	tb.Append([]Value{Int(7), Int(1), Float(0), Str(""), Null})
	vals, nulls := tb.ScanInt64(0)
	if len(vals) != 1 || vals[0] != 7 || nulls != nil {
		t.Errorf("ScanInt64 = %v %v", vals, nulls)
	}
	tb.Append([]Value{Int(8), Null, Float(0), Str(""), Null})
	if vals, nulls = tb.ScanInt64(1); len(vals) != 2 || vals[0] != 1 || !slices.Equal(nulls, []bool{false, true}) {
		t.Errorf("ScanInt64 after a NULL = %v %v", vals, nulls)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ScanInt64 on string column did not panic")
		}
	}()
	tb.ScanInt64(3)
}

func TestValueStrings(t *testing.T) {
	if Int(5).String() != "5" || Float(2.5).String() != "2.50" ||
		Str("x").String() != "x" || Null.String() != "" {
		t.Error("Value.String formatting broken")
	}
	if KindInt.String() != "int" || KindNull.String() != "null" ||
		KindFloat.String() != "float" || KindString.String() != "string" ||
		KindDate.String() != "date" {
		t.Error("Kind.String broken")
	}
}
