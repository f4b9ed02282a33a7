package storage

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"tpcds/internal/schema"
)

// TestReadFlatErrors: a malformed file fails with an error that can be
// acted on — table, 1-based physical line (blank lines count), column
// — and leaves exactly the rows before that line in the table, the
// failing row rolled back from every column it had already reached.
func TestReadFlatErrors(t *testing.T) {
	const good = "1|5|3.25|a|1999-02-21|\n"
	cases := []struct {
		name, input  string
		rows         int    // complete rows before the failure
		line         int    // where the error is reported
		column       string // and in which column
		cause        string // a fragment of the cause
		block, limit int    // reader limits, 0 = the defaults
	}{
		{name: "truncated last row", input: good + "\n2|6|1.5|b", rows: 1, line: 3, column: "d", cause: "row ends after 4 of 5 fields"},
		{name: "truncated first row", input: "1|2|\n", line: 1, column: "amt", cause: "row ends after 2 of 5 fields"},
		{name: "too many fields", input: good + good + "3|7|1.5|c|2000-01-01|x|y\n", rows: 2, line: 3, column: "d", cause: "7 fields, want 5"},
		{name: "bad integer", input: good + "2|x|1.5|b|2000-01-01|\n" + good, rows: 1, line: 2, column: "n", cause: `bad integer field "x"`},
		{name: "bad integer in the first column", input: "x|1|1.0|a|2000-01-01|\n", line: 1, column: "k", cause: "bad integer"},
		{name: "int64 overflow", input: "9223372036854775808|1|1.0|a|2000-01-01|\n", line: 1, column: "k", cause: "out of range"},
		{name: "bad decimal", input: good + "2|6|1.5.2|b|2000-01-01|\n", rows: 1, line: 2, column: "amt", cause: "bad decimal"},
		{name: "bad date", input: good + "\r\n\r\n2|6|1.5|b|2001-02-29|\r\n", rows: 1, line: 4, column: "d", cause: "bad date"},
		{name: "not a date", input: "1|1|1.0|a|not-a-date|\n", line: 1, column: "d", cause: "bad date"},
		{name: `\e in a typed column`, input: good + `2|6|\e|b|2000-01-01|` + "\n", rows: 1, line: 2, column: "amt", cause: "explicit empty string"},
		{name: "dangling backslash", input: good + `2|6|1.5|b|2000-01-01\`, rows: 1, line: 2, column: "d", cause: `bad date "2000-01-01\\"`},
		{name: "line longer than the block buffer", input: good + "2|6|1.5|" + strings.Repeat("b", 100) + "|2000-01-01|\n",
			rows: 1, line: 2, column: "name", cause: "line longer than 64 bytes", block: 16, limit: 64},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tb := NewTable(testDef())
			tb.Append([]Value{Int(0), Null, Null, Null, Null}) // ReadFlat appends
			block, limit := flatBlockSize, flatMaxLine
			if c.block > 0 {
				block, limit = c.block, c.limit
			}
			n, err := tb.readFlat(strings.NewReader(c.input), block, limit)
			if err == nil {
				t.Fatal("loaded without error")
			}
			where := "read t: line " + strconv.Itoa(c.line) + ", column " + c.column + ": "
			if msg := err.Error(); !strings.Contains(msg, where) || !strings.Contains(msg, c.cause) {
				t.Errorf("error %q, want %q … %q", msg, where, c.cause)
			}
			if n != c.rows || tb.NumRows() != 1+c.rows {
				t.Errorf("reported %d rows, table grew to %d, want %d and %d", n, tb.NumRows(), c.rows, 1+c.rows)
			}
			for i := 0; i < tb.NumCols(); i++ {
				if tb.Col(i).Len() != tb.NumRows() {
					t.Errorf("column %s holds %d entries for %d rows", testDef().Columns[i].Name, tb.Col(i).Len(), tb.NumRows())
				}
			}
			for r := 1; r < tb.NumRows(); r++ {
				if got := tb.Get(r, 3); got.S != "a" {
					t.Errorf("row %d is not one of the complete rows: name = %v", r, got)
				}
			}
		})
	}
}

// TestReadFlatNumericOverflowUnwraps: the cause stays matchable.
func TestReadFlatNumericOverflowUnwraps(t *testing.T) {
	_, err := NewTable(testDef()).ReadFlat(strings.NewReader("99999999999999999999|1|1.0|a|2000-01-01|\n"))
	if !errors.Is(err, strconv.ErrRange) {
		t.Errorf("error %v does not wrap strconv.ErrRange", err)
	}
}

// TestReadFlatReaderError: a failing io.Reader is reported with the
// table and the last complete line, and the rows before it stay.
func TestReadFlatReaderError(t *testing.T) {
	boom := errors.New("boom")
	tb := NewTable(testDef())
	n, err := tb.ReadFlat(&failingReader{data: "1|5|3.25|a|1999-02-21|\n2|6|", err: boom})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "read t: after line 1") {
		t.Errorf("error %v, want the reader's error after line 1", err)
	}
	if n != 1 || tb.NumRows() != 1 {
		t.Errorf("rows = %d / %d, want the one complete row", n, tb.NumRows())
	}
}

type failingReader struct {
	data string
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if f.data == "" {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// TestReadFlatLenientSpellings: what the grammar allows beyond the
// writer's own output — no trailing delimiter, no final newline, CR LF,
// blank lines, a backslash ending the line of a string column — and the
// numeric spellings that leave the fast paths.
func TestReadFlatLenientSpellings(t *testing.T) {
	tb := NewTable(testDef())
	in := "\n+5|007|1e3|a\\|b|2000-02-29\r\n\r\n-0|-12|.5|tail\\\\|1900-01-01|\n3|4|-0|\\e|9999-12-31"
	n, err := tb.ReadFlat(strings.NewReader(in))
	if err != nil || n != 3 {
		t.Fatalf("ReadFlat = %d, %v", n, err)
	}
	want := [][]Value{
		{Int(5), Int(7), Float(1000), Str("a|b"), DateV(DaysFromYMD(2000, 2, 29))},
		{Int(0), Int(-12), Float(0.5), Str(`tail\`), DateV(0)},
		{Int(3), Int(4), Float(math.Copysign(0, -1)), Str(""), DateV(DaysFromYMD(9999, 12, 31))},
	}
	for r, row := range want {
		for c, w := range row {
			if got := tb.Get(r, c); !sameValue(got, w) {
				t.Errorf("row %d col %d = %#v, want %#v", r, c, got, w)
			}
		}
	}

	// A backslash that ends the line is a backslash.
	def := &schema.Table{Name: "u", Columns: []schema.Column{
		{Name: "k", Type: schema.Identifier}, {Name: "s", Type: schema.Varchar, Len: 10}}}
	u := NewTable(def)
	if n, err := u.ReadFlat(strings.NewReader(`1|abc\`)); err != nil || n != 1 || u.Get(0, 1).S != `abc\` {
		t.Errorf(`ReadFlat("1|abc\") = %d, %v, %v`, n, err, u.Get(0, 1))
	}
}

// TestLoadDirErrorNamesFile: the loader adds the path of the file to
// the reader's table, line and column.
func TestLoadDirErrorNamesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.dat")
	if err := os.WriteFile(path, []byte("1|5|3.25|a|1999-02-21|\n2|6|1.5|b|1999-02-30|\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadDir(dir, []*schema.Table{testDef()})
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "line 2, column d") {
		t.Errorf("LoadDir error %v, want %s and line 2, column d", err, path)
	}
}
