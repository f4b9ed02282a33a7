package storage

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"tpcds/internal/schema"
)

// Vocabularies for the column-edit programs: one that stays small, one
// whose values are nearly all different (the column gives its
// dictionary up once more than half the rows brought a new value), and
// one appended to a column that already holds dictMax-4 values (the
// dictionary fills up a few new values in).
const (
	vocabSmall = iota
	vocabWide
	vocabFull
	vocabs
)

var smallVocab = []string{"", "M", "F", "a|b", "Advanced Degree", `back\slash`, "line\nbreak"}

func vocabValue(vocab int, x uint16) Value {
	if vocab == vocabSmall {
		return Str(smallVocab[int(x)%len(smallVocab)])
	}
	return Str("v" + strconv.Itoa(int(x)))
}

// The vocabFull starting point, rendered once as a flat file (loading
// it is several times faster than appending its rows one by one, which
// is what lets the fuzzer try more than a few programs a second):
// dictMax-4 values twice each, and 16 more rows so that the last four
// values still have half the rows behind them.
var (
	fullOnce sync.Once
	fullFlat []byte
	fullKeys []int64
	fullStrs []Value
)

func buildFull() {
	for i := 0; i < 2*(dictMax-4)+16; i++ {
		v := "p0"
		if i < 2*(dictMax-4) {
			v = "p" + strconv.Itoa(i/2)
		}
		fullFlat = append(fullFlat, strconv.Itoa(i)+"|"+v+"|\n"...)
		fullKeys, fullStrs = append(fullKeys, int64(i)), append(fullStrs, Str(v))
	}
}

func colDef() *schema.Table {
	return &schema.Table{Name: "c", Kind: schema.Dimension, Columns: []schema.Column{
		{Name: "k", Type: schema.Identifier},
		{Name: "s", Type: schema.Varchar, Len: 20, Nullable: true},
	}}
}

// runColumnOps interprets prog as Append / AppendN / SetValue / Delete /
// truncate / Grow calls on a (key, string) table and on a model of it
// — two plain slices — and fails unless the table reads back as the
// model does: Len, the touched row and the null vectors after every
// call (none while no NULL was ever stored in the column, else one
// entry per model row), every row and the WriteFlat bytes at the end.
// It returns the table.
func runColumnOps(t *testing.T, vocab int, prog []byte) *Table {
	t.Helper()
	tb := NewTable(colDef())
	var keys []int64
	var strs []Value
	nextKey := int64(0)
	stored := false // whether the program has stored a NULL in the string column
	add := func(v Value) {
		tb.Append([]Value{Int(nextKey), v})
		keys, strs = append(keys, nextKey), append(strs, v)
		nextKey++
	}
	if vocab == vocabFull {
		fullOnce.Do(buildFull)
		if _, err := tb.ReadFlat(bytes.NewReader(fullFlat)); err != nil {
			t.Fatal(err)
		}
		keys, strs, nextKey = slices.Clone(fullKeys), slices.Clone(fullStrs), int64(len(fullKeys))
	}
	arg := func() uint16 { // the next two bytes of the program, zeros past its end
		var x uint16
		for i := 0; i < 2 && len(prog) > 0; i++ {
			x, prog = x<<8|uint16(prog[0]), prog[1:]
		}
		return x
	}
	for len(prog) > 0 {
		op := prog[0]
		prog = prog[1:]
		touched := -1
		switch op % 8 {
		case 0, 1:
			add(vocabValue(vocab, arg()))
			touched = len(strs) - 1
		case 2:
			// A run of 0-4 rows: the keys one by one, the string column
			// in one AppendN, which must leave it as that many Appends.
			v, n := vocabValue(vocab, arg()), int(op>>3)%5
			for i := 0; i < n; i++ {
				tb.Col(0).Append(Int(nextKey))
				keys, strs = append(keys, nextKey), append(strs, v)
				nextKey++
			}
			tb.Col(1).AppendN(v, n)
			touched = len(strs) - 1
		case 3:
			add(Null)
			touched, stored = len(strs)-1, true
		case 4:
			if len(strs) == 0 {
				continue
			}
			touched = int(arg()) % len(strs)
			v := vocabValue(vocab, arg())
			if op&8 != 0 {
				v, stored = Null, true
			}
			tb.SetValue(touched, 1, v)
			strs[touched] = v
		case 5:
			// Unsorted, with duplicates, and often out of range.
			a, b := int(arg()), int(arg())-3
			ids := []int{len(strs) - 1, a, b, a % max(len(strs), 1), len(strs) - 1, b}
			victim := map[int]bool{}
			for _, id := range ids {
				victim[id] = true
			}
			w := 0
			for r := range strs {
				if !victim[r] {
					keys[w], strs[w] = keys[r], strs[r]
					w++
				}
			}
			if got := tb.Delete(ids); got != len(strs)-w {
				t.Fatalf("Delete(%v) removed %d rows of %d, want %d", ids, got, len(strs), len(strs)-w)
			}
			keys, strs = keys[:w], strs[:w]
		case 6:
			n := max(len(strs)-int(op>>3)%4, 0)
			tb.truncate(n)
			keys, strs = keys[:n], strs[:n]
		case 7:
			tb.Grow(int(op >> 3))
		}
		if tb.NumRows() != len(strs) || tb.Col(1).Len() != len(strs) {
			t.Fatalf("after op %d: %d rows, string column %d, want %d", op%8, tb.NumRows(), tb.Col(1).Len(), len(strs))
		}
		if touched >= 0 && !sameValue(tb.Get(touched, 1), strs[touched]) {
			t.Fatalf("after op %d: row %d reads %#v, want %#v", op%8, touched, tb.Get(touched, 1), strs[touched])
		}
		if _, _, _, _, _, _, nulls := tb.Col(0).Raw(); nulls != nil {
			t.Fatalf("after op %d: the key column, never NULL, has a null vector", op%8)
		}
		_, _, _, _, _, _, nulls := tb.Col(1).Raw()
		if !stored {
			if nulls != nil {
				t.Fatalf("after op %d: a null vector before the first NULL", op%8)
			}
			continue
		}
		if len(nulls) != len(strs) {
			t.Fatalf("after op %d: %d null entries for %d rows", op%8, len(nulls), len(strs))
		}
		for r, v := range strs {
			if nulls[r] != v.IsNull() {
				t.Fatalf("after op %d: row %d null = %v, model %#v", op%8, r, nulls[r], v)
			}
		}
	}
	var want strings.Builder
	for r, v := range strs {
		if got := tb.Get(r, 1); !sameValue(got, v) || tb.Get(r, 0).I != keys[r] {
			t.Fatalf("row %d reads (%d, %#v), want (%d, %#v)", r, tb.Get(r, 0).I, got, keys[r], v)
		}
		want.WriteString(strconv.FormatInt(keys[r], 10) + "|")
		switch {
		case v.IsNull():
		case v.S == "":
			want.WriteString(`\e`)
		default:
			want.WriteString(refEscapeFlat(v.S))
		}
		want.WriteString("|\n")
	}
	var got strings.Builder
	if err := tb.WriteFlat(&got); err != nil || got.String() != want.String() {
		t.Fatalf("WriteFlat (err %v) differs from the model's rendering", err)
	}
	return tb
}

// TestColumnOpsModel runs long random edit programs over each
// vocabulary and pins the layout each one must end in: the small
// vocabulary keeps its dictionary through every edit, the other two
// lose it mid-program and carry on as plain columns.
func TestColumnOpsModel(t *testing.T) {
	for vocab := 0; vocab < vocabs; vocab++ {
		rng := rand.New(rand.NewSource(int64(vocab)))
		prog := make([]byte, 6000)
		rng.Read(prog)
		col := runColumnOps(t, vocab, prog).Col(1)
		if dict := col.dict != nil; dict != (vocab == vocabSmall) {
			t.Errorf("vocabulary %d: dictionary layout = %v", vocab, dict)
		}
		if col.dict != nil && (col.strs != nil || len(col.dict.vals) > len(smallVocab)) {
			t.Errorf("vocabulary %d: dictionary column holds strs or %d entries", vocab, len(col.dict.vals))
		}
		if col.dict == nil && col.codes != nil {
			t.Errorf("vocabulary %d: plain column kept its codes", vocab)
		}
	}
}

// FuzzColumnOps is runColumnOps over fuzzed programs.
func FuzzColumnOps(f *testing.F) {
	f.Add(uint8(vocabSmall), []byte{0, 0, 1, 3, 0, 0, 2, 4, 0, 0, 0, 5, 5, 0, 1, 0, 2, 14, 63})
	var wide []byte // 400 different values, then edits of the plain column
	for i := 0; i < 400; i++ {
		wide = append(wide, 0, byte(i>>8), byte(i))
	}
	f.Add(uint8(vocabWide), append(wide, 4, 0, 5, 9, 9, 12, 0, 7, 0, 0, 5, 0, 0, 0, 0, 6, 3, 0, 1, 1))
	f.Add(uint8(vocabFull), []byte{0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5, 4, 0, 7, 0, 9, 5, 0, 0, 0, 9, 0, 0, 6})
	f.Fuzz(func(t *testing.T, vocab uint8, prog []byte) {
		runColumnOps(t, int(vocab)%vocabs, prog)
	})
}

// TestAppendNEqualsAppends: AppendN(v, n) leaves a column as n
// Appends of v do — every vector, the dictionary and the layout —
// for every physical kind, NULL, n = 0, a new string at the point
// where the column gives its dictionary up, and the same panics.
func TestAppendNEqualsAppends(t *testing.T) {
	raw := func(c *Column) string {
		k, ints, flts, strs, codes, dict, nulls := c.Raw()
		return fmt.Sprintf("%v %v %v %q %v %q %v plain=%v", k, ints, flts, strs, codes, dict, nulls, c.dict == nil)
	}
	// demoting is a string column one new value away from its dictionary
	// being given up (dictTrial values in as many rows).
	demoting := func() *Column {
		c := &Column{Type: schema.Varchar, dict: &strDict{codes: map[string]uint16{}}}
		for i := 0; i < dictTrial; i++ {
			c.Append(Str(strconv.Itoa(i)))
		}
		return c
	}
	fresh := func(typ schema.Type) func() *Column {
		return func() *Column {
			c := &Column{Type: typ}
			if physKind(typ) == KindString {
				c.dict = &strDict{codes: map[string]uint16{}}
			}
			c.Append(Null) // something before the run
			return c
		}
	}
	cases := []struct {
		name string
		col  func() *Column
		v    Value
	}{
		{"int", fresh(schema.Integer), Int(7)},
		{"identifier null", fresh(schema.Identifier), Null},
		{"decimal from int", fresh(schema.Decimal), Int(3)},
		{"decimal", fresh(schema.Decimal), Float(2.5)},
		{"date", fresh(schema.Date), DateV(100)},
		{"date null", fresh(schema.Date), Null},
		{"string", fresh(schema.Char), Str("M")},
		{"empty string", fresh(schema.Char), Str("")},
		{"string null", fresh(schema.Varchar), Null},
		{"demoting string", demoting, Str("new")},
		{"known string at the trial", demoting, Str("7")},
		{"null at the trial", demoting, Null},
	}
	for _, tc := range cases {
		for _, n := range []int{0, 1, 2, 5} {
			want, got := tc.col(), tc.col()
			for i := 0; i < n; i++ {
				want.Append(tc.v)
			}
			got.AppendN(tc.v, n)
			if a, b := raw(got), raw(want); a != b {
				t.Errorf("%s, n=%d: AppendN gives\n%s\n%d Appends give\n%s", tc.name, n, a, n, b)
			}
		}
	}
	// After a demotion the run continues on the plain strings.
	c := demoting()
	c.AppendN(Str("new"), 3)
	if c.dict != nil || c.Len() != dictTrial+3 || c.Get(dictTrial+2).S != "new" {
		t.Error("a run of a new value at the trial did not turn the column plain")
	}

	panics := func(fn func()) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		fn()
		return ""
	}
	for _, tc := range []struct {
		typ schema.Type
		v   Value
	}{{schema.Integer, Str("x")}, {schema.Decimal, DateV(1)}, {schema.Char, Int(1)}, {schema.Date, Float(1)}} {
		a := panics(func() { fresh(tc.typ)().Append(tc.v) })
		b := panics(func() { fresh(tc.typ)().AppendN(tc.v, 3) })
		if a == "" || a != b {
			t.Errorf("%v into %v: Append panics %q, AppendN %q", tc.v, tc.typ, a, b)
		}
		if msg := panics(func() { fresh(tc.typ)().AppendN(tc.v, 0) }); msg != "" {
			t.Errorf("%v into %v: an empty run panicked (%s); zero Appends do not", tc.v, tc.typ, msg)
		}
	}
}

// TestDictionaryDemotionRule pins the two conditions a column gives its
// dictionary up under, to the row: not while it holds dictTrial values
// or fewer, however many rows those are; at the first new value that
// finds more distinct values than half the rows; and at the value that
// would be number dictMax+1, however many rows there are.
func TestDictionaryDemotionRule(t *testing.T) {
	tb := NewTable(colDef())
	col := tb.Col(1)
	for i := 0; i < dictTrial; i++ {
		tb.Append([]Value{Int(int64(i)), Str(strconv.Itoa(i))})
	}
	if col.dict == nil || len(col.dict.vals) != dictTrial {
		t.Fatalf("%d different values in %d rows: dictionary kept = %v", dictTrial, dictTrial, col.dict != nil)
	}
	tb.Append([]Value{Int(0), Str("0")}) // a known value: no decision
	if col.dict == nil {
		t.Fatal("a repeated value made the column plain")
	}
	tb.Append([]Value{Int(0), Str("new")}) // 2·256 > 257 rows
	if col.dict != nil || col.Len() != dictTrial+2 || col.Get(dictTrial+1).S != "new" || col.Get(7).S != "7" {
		t.Fatal("the value after the trial did not turn the column plain, or rows were lost on the way")
	}

	tb = NewTable(colDef())
	col = tb.Col(1)
	for rep := 0; rep < 2; rep++ {
		for i := 0; i < dictTrial; i++ {
			tb.Append([]Value{Int(0), Str(strconv.Itoa(i))})
		}
	}
	tb.Append([]Value{Int(0), Str("new")}) // 2·256 ≤ 512 rows
	if col.dict == nil {
		t.Fatal("257 values in 513 rows made the column plain")
	}

	full := runColumnOps(t, vocabFull, nil)
	col = full.Col(1)
	if col.dict == nil || len(col.dict.vals) != dictMax-4 {
		t.Fatalf("%d values, each twice: dictionary kept = %v", dictMax-4, col.dict != nil)
	}
	for i := 0; i < 4; i++ {
		full.SetValue(i, 1, Str("q"+strconv.Itoa(i))) // SetValue enters values as Append does
	}
	if col.dict == nil || len(col.dict.vals) != dictMax {
		t.Fatal("the dictionary did not fill up to dictMax")
	}
	full.SetValue(9, 1, Str("p1")) // known: fits
	if col.dict == nil {
		t.Fatal("a known value made the full dictionary column plain")
	}
	full.SetValue(9, 1, Str("one too many"))
	if col.dict != nil || col.Get(9).S != "one too many" || col.Get(0).S != "q0" || col.Get(8).S != "p4" {
		t.Fatal("value dictMax+1 did not turn the column plain, or rows changed on the way")
	}
}

// TestRolledBackRowStaysInDictionary: a flat-file row that fails after
// its string was read is taken back by truncate; the value keeps its
// dictionary entry — codes are never reused — and nothing a reader can
// see changes.
func TestRolledBackRowStaysInDictionary(t *testing.T) {
	tb := NewTable(testDef())
	if _, err := tb.ReadFlat(strings.NewReader("1|5|3.25|a|1999-02-21|\n2|6|1.5|b|2000-02-29|\n")); err != nil {
		t.Fatal(err)
	}
	var before, after strings.Builder
	if err := tb.WriteFlat(&before); err != nil {
		t.Fatal(err)
	}
	n, err := tb.ReadFlat(strings.NewReader("3|7|2.5|never seen|2001-02-29|\n"))
	if err == nil || n != 0 || tb.NumRows() != 2 {
		t.Fatalf("bad date: %d rows read, %d in the table, err %v", n, tb.NumRows(), err)
	}
	name := tb.Col(3)
	if _, kept := name.dict.codes["never seen"]; !kept || len(name.dict.vals) != 3 || len(name.codes) != 2 {
		t.Errorf("dictionary %q over %d codes, want the rolled-back value kept and its code gone", name.dict.vals, len(name.codes))
	}
	if err := tb.WriteFlat(&after); err != nil || after.String() != before.String() {
		t.Errorf("WriteFlat changed across a rolled-back row (err %v):\n%q\n%q", err, before.String(), after.String())
	}
}

// streamOnly hides every method of a reader but Read.
type streamOnly struct{ io.Reader }

// TestCapacityHygiene: Grow leaves vectors alone that already have the
// room, and no vector ReadFlat filled ends more than a sixteenth larger
// than its contents — whether the input could be counted first (a
// seekable reader: reserved once, exactly) or not (grown by doubling,
// then cut back). A column without NULLs has no null vector to size;
// a column holding a NULL has its vector sized as its payload is.
func TestCapacityHygiene(t *testing.T) {
	// caps lists every column's payload capacity, then the null vector
	// capacity of each column in nullCols, failing unless exactly those
	// columns have a null vector.
	caps := func(tb *Table, nullCols ...int) (out []int) {
		for i := range tb.cols {
			c := &tb.cols[i]
			out = append(out, cap(c.ints)+cap(c.flts)+cap(c.strs)+cap(c.codes))
			if (c.nulls != nil) != slices.Contains(nullCols, i) {
				t.Fatalf("column %d: has a null vector = %v, want it on columns %v only", i, c.nulls != nil, nullCols)
			}
		}
		for _, i := range nullCols {
			out = append(out, cap(tb.cols[i].nulls))
		}
		return out
	}
	const nullCol = 4 // the one NULL appended below
	tb := NewTable(testDef())
	tb.Grow(1000)
	tb.Append([]Value{Int(1), Int(5), Float(3.25), Str("a"), Null})
	reserved := caps(tb, nullCol)
	for _, c := range reserved {
		if c < 1000 {
			t.Fatalf("capacities after Grow(1000): %v", reserved)
		}
	}
	first := &tb.cols[0].ints[0]
	tb.Grow(999)
	if got := caps(tb, nullCol); fmt.Sprint(got) != fmt.Sprint(reserved) || &tb.cols[0].ints[0] != first {
		t.Errorf("Grow within capacity reallocated: capacities %v, before %v", got, reserved)
	}
	tb.Grow(1000)
	if got := caps(tb, nullCol); got[0] < 1001 || got[nullCol] < 1001 || got[len(got)-1] < 1001 {
		t.Errorf("Grow past capacity did not grow: %v", got)
	}

	var file strings.Builder
	for i := 0; i < 5000; i++ {
		// Lines lengthen along the file, as they do under a counting key.
		// The string is NULL (the empty field) on the first 500 lines,
		// the date on every seventh line from the fourth.
		date := "2000-01-01"
		if i%7 == 3 {
			date = ""
		}
		fmt.Fprintf(&file, "%d|%d|1.5|%s|%s|\n", i, i, strings.Repeat("x", i/500), date)
	}
	for name, r := range map[string]io.Reader{
		"seekable": strings.NewReader(file.String()),
		"stream":   streamOnly{strings.NewReader(file.String())},
	} {
		tb := NewTable(testDef())
		if n, err := tb.ReadFlat(r); n != 5000 || err != nil {
			t.Fatalf("%s: %d rows, err %v", name, n, err)
		}
		for i, c := range caps(tb, 3, 4) {
			if c < 5000 || c-5000 > 5000/16 {
				t.Errorf("%s: vector %d has capacity %d for 5000 rows", name, i, c)
			}
		}
	}
}

// TestFirstNull: a column that never held a NULL has no null vector, and
// its first NULL — through each way a NULL gets into a column — creates
// one, after which the table reads as a model of its rows does through
// Get, Len and WriteFlat, and goes on doing so after Delete and
// truncate. The other columns, still without NULLs, keep no vector.
func TestFirstNull(t *testing.T) {
	row := func(i int) []Value {
		return []Value{Int(int64(i)), Int(int64(10 + i)), Float(float64(i) + 0.25), Str(fmt.Sprint("s", i%3)), DateV(int64(10000 + i))}
	}
	withNull := func(r []Value, c int) []Value {
		r = slices.Clone(r)
		r[c] = Null
		return r
	}
	// Each way gives column c of tb, holding the model's rows, its first
	// NULL and returns the model after it.
	ways := map[string]func(tb *Table, rows [][]Value, c int) [][]Value{
		"Append": func(tb *Table, rows [][]Value, c int) [][]Value {
			r := withNull(row(len(rows)), c)
			tb.Append(r)
			return append(rows, r)
		},
		"AppendN": func(tb *Table, rows [][]Value, c int) [][]Value {
			r := withNull(row(len(rows)), c)
			for j, v := range r {
				tb.Col(j).AppendN(v, 3)
			}
			return append(rows, r, r, r)
		},
		"Set": func(tb *Table, rows [][]Value, c int) [][]Value {
			tb.Col(c).Set(2, Null)
			rows[2] = withNull(rows[2], c)
			return rows
		},
		"Update": func(tb *Table, rows [][]Value, c int) [][]Value {
			rows[1] = withNull(row(40), c)
			tb.Update(1, rows[1])
			return rows
		},
		"SetValue": func(tb *Table, rows [][]Value, c int) [][]Value {
			tb.SetValue(3, c, Null)
			rows[3] = withNull(rows[3], c)
			return rows
		},
		"flat line": func(tb *Table, rows [][]Value, c int) [][]Value {
			r := withNull(row(len(rows)), c)
			if n, err := tb.ReadFlat(strings.NewReader(modelFlat([][]Value{r}))); n != 1 || err != nil {
				t.Fatalf("ReadFlat: %d rows, err %v", n, err)
			}
			return append(rows, r)
		},
	}
	check := func(label string, tb *Table, rows [][]Value, c int) {
		t.Helper()
		for j := 0; j < tb.NumCols(); j++ {
			col := tb.Col(j)
			_, _, _, _, _, _, nulls := col.Raw()
			if col.Len() != len(rows) || (nulls != nil) != (j == c) || nulls != nil && len(nulls) != len(rows) {
				t.Fatalf("%s: column %d has %d rows and %d null entries (vector %v), want %d rows and a vector only on column %d",
					label, j, col.Len(), len(nulls), nulls != nil, len(rows), c)
			}
			for r := range rows {
				if got := col.Get(r); !sameValue(got, rows[r][j]) {
					t.Fatalf("%s: row %d column %d reads %#v, want %#v", label, r, j, got, rows[r][j])
				}
			}
		}
		var got strings.Builder
		if err := tb.WriteFlat(&got); err != nil || got.String() != modelFlat(rows) {
			t.Fatalf("%s: WriteFlat (err %v)\n%q\nwant\n%q", label, err, got.String(), modelFlat(rows))
		}
	}
	for name, give := range ways {
		for c := 1; c < len(testDef().Columns); c++ {
			label := fmt.Sprintf("%s, column %d", name, c)
			tb := NewTable(testDef())
			var rows [][]Value
			for i := 0; i < 6; i++ {
				rows = append(rows, row(i))
				tb.Append(rows[i])
			}
			check(label+", before", tb, rows, -1)
			rows = give(tb, rows, c)
			check(label, tb, rows, c)
			tb.Delete([]int{0, 2})
			rows = append(rows[1:2], rows[3:]...)
			check(label+", after Delete", tb, rows, c)
			tb.truncate(len(rows) - 1)
			rows = rows[:len(rows)-1]
			check(label+", after truncate", tb, rows, c)
		}
	}
}

// modelFlat renders rows in flat-file format from their values alone.
func modelFlat(rows [][]Value) string {
	var b strings.Builder
	for _, r := range rows {
		for _, v := range r {
			switch {
			case v.IsNull():
			case v.K == KindString && v.S == "":
				b.WriteString(`\e`)
			case v.K == KindString:
				b.WriteString(refEscapeFlat(v.S))
			default:
				b.WriteString(v.String())
			}
			b.WriteByte('|')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestAdoptReadsAsAppended adopts vectors into an empty table — an
// integer column with an all-false null vector, a string column on a
// shared dictionary — and requires the rows Append would have made, no
// null vector where no row is NULL, and a dictionary that still takes
// new values without writing into the one it was handed.
func TestAdoptReadsAsAppended(t *testing.T) {
	dict := make([]string, 3, 8)
	copy(dict, []string{"x", "y", "z"})
	tb := NewTable(colDef())
	tb.Adopt(0, []int64{7, 8, 9}, nil, nil, nil, nil, []bool{false, false, false})
	tb.Adopt(1, nil, nil, nil, []uint16{2, 0, 0}, dict, []bool{false, true, false})
	want := [][]Value{{Int(7), Str("z")}, {Int(8), Null}, {Int(9), Str("x")}}
	for i, row := range want {
		if got := tb.Row(i); !slices.Equal(got, row) {
			t.Fatalf("row %d reads %v, want %v", i, got, row)
		}
	}
	if tb.Col(0).nulls != nil || tb.Col(1).nulls == nil {
		t.Fatal("a null vector without a NULL was kept, or one with a NULL dropped")
	}
	tb.Append([]Value{Int(10), Str("w")})
	tb.Append([]Value{Int(11), Str("y")})
	if got := tb.Get(3, 1).S + tb.Get(4, 1).S; got != "wy" || tb.Col(1).dict == nil || dict[:4][3] != "" {
		t.Fatalf("appends after adoption read %q, or wrote into the handed dictionary", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("adopting into a column that holds rows did not panic")
		}
	}()
	tb.Adopt(0, []int64{1}, nil, nil, nil, nil, nil)
}
