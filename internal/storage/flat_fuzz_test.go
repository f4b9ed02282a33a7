package storage

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// sameValue is equality to the bit: NULL is not "", -0 is not 0, and a
// NaN equals itself.
func sameValue(a, b Value) bool {
	return a.K == b.K && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// sameTables fails the test unless both tables hold the same rows.
func sameTables(t *testing.T, what string, got, want *Table) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%s: %d rows, want %d", what, got.NumRows(), want.NumRows())
	}
	for c := 0; c < want.NumCols(); c++ {
		if got.Col(c).Len() != want.NumRows() {
			t.Fatalf("%s: column %d has %d entries for %d rows", what, c, got.Col(c).Len(), want.NumRows())
		}
		for r := 0; r < want.NumRows(); r++ {
			if a, b := got.Get(r, c), want.Get(r, c); !sameValue(a, b) {
				t.Fatalf("%s: row %d col %d: %#v, want %#v", what, r, c, a, b)
			}
		}
	}
}

// FuzzReadFlat feeds arbitrary bytes into the flat-file reader over a
// mixed-type table and compares it with the reference reader (the
// Scanner / split / ParseField reader this package used to ship):
// both accept or both reject, and both leave the same rows behind —
// NULL versus \e and every float bit included. The reader runs twice,
// once with a 16-byte block so that refills land inside fields, escapes
// and CR LF pairs. LoadDir's pieces, cut at two sizes, must give the
// table or the error ReadFlat gives. Whatever loads must also survive
// being written back out.
func FuzzReadFlat(f *testing.F) {
	f.Add("") // one empty piece
	f.Add("1|5|3.25|hello world|1999-02-21|\n2|||||\n")
	f.Add("1|2|\n")
	f.Add(`1||0.5|esc\|aped|` + "|\n")
	f.Add("x|1|1.0|a|2000-01-01|\n")
	f.Add("1|1|1.0|a\\|2000-01-01|\n")
	f.Add("||||\n\n|")
	f.Add("1|2|3.0|\\e|2020-01-01|\n")                           // explicit empty string
	f.Add("\\e|1|1.0|a|2000-01-01|\n")                           // \e in typed field: error
	f.Add("1|2|3.0|\\e\\e|2020-01-01|\n")                        // doubled marker still ""
	f.Add("1|2|3.0|a\\eb|2020-01-01|\n")                         // marker inside payload bytes
	f.Add("1|2|3.0|\\\\e|2020-01-01|\n")                         // escaped backslash + e: literal \e
	f.Add("1|5|3.25|a|1999-02-21|\r\n2|6|1.5|b|2000-02-29|\r\n") // CR LF
	f.Add("1|5|3.25|a|1999-02-21|\n2|6|1.5|b|2000-02-29")        // no final newline, no final delimiter
	f.Add("\n\r\n1|5|3.25|a|1999-02-21|\n\n\n2|6|1.5|b|2000-02-29|\n\n")
	f.Add("+5|007|1e3|a|2000-01-01|\n-0|-007|.5|b|0001-01-01|\n")
	f.Add("1|2|-0|a|2000-01-01|\n1|2|inf|a|2000-01-01|\n1|2|5.|a|2000-01-01|\n1|2|nan|a|2000-01-01|\n")
	f.Add("9223372036854775807|-9223372036854775808|1234567890123456.75|a|9999-12-31|\n")
	f.Add("9223372036854775808|1|1.0|a|2000-01-01|\n") // 19 digits, out of range
	f.Add("1|2|3.0|a|2001-02-29|\n")                   // not a day of the calendar
	f.Add("1|2|3.0|a long enough name to span several refills of a tiny block|2000-01-01|\n")
	f.Add("1\\2|3|4.5\\0|a|2000-01\\-01|\n") // escapes inside typed fields
	f.Add("1|2|3.0|a|2000-01-01\\")          // dangling backslash
	f.Add("1|2|3.0|a|2000-01-01|x|\n")       // too many fields
	// More different strings than rows can pay a dictionary for: the
	// string column turns plain mid-file, then takes NULL, \e, a repeat.
	var demoting strings.Builder
	for i := 0; i < dictTrial+40; i++ {
		fmt.Fprintf(&demoting, "%d|2|3.0|name %d|2000-01-01|\n", i, i)
	}
	f.Add(demoting.String() + "1|2|3.0||2000-01-01|\n1|2|3.0|\\e|2000-01-01|\n1|2|3.0|name 7|2000-01-01|\n")
	f.Fuzz(func(t *testing.T, data string) {
		ref := NewTable(testDef())
		wantN, wantErr := refReadFlat(ref, strings.NewReader(data))

		tb := NewTable(testDef())
		n, err := tb.ReadFlat(strings.NewReader(data))
		small := NewTable(testDef())
		smallN, smallErr := small.readFlat(strings.NewReader(data), 16, flatMaxLine)
		if (err == nil) != (wantErr == nil) || (smallErr == nil) != (wantErr == nil) {
			t.Fatalf("accepted language differs: reference %v, reader %v, 16-byte blocks %v", wantErr, err, smallErr)
		}
		if n != wantN || smallN != wantN {
			t.Fatalf("rows reported: reference %d, reader %d, 16-byte blocks %d", wantN, n, smallN)
		}
		sameTables(t, "reader vs reference", tb, ref)
		sameTables(t, "16-byte blocks vs reference", small, ref)

		// The pieces LoadDir cuts: one a line, and pieces of a size the
		// input picks. Each load is the serial one, or fails with its
		// error.
		for _, size := range []int64{1, 1 + int64(hashBytes(data)%uint64(len(data)+1))} {
			tables, errs := loadFlat([]flatSource{{testDef(), strings.NewReader(data), int64(len(data))}}, size)
			if fmt.Sprint(errs[0]) != fmt.Sprint(err) {
				t.Fatalf("%d-byte pieces: error %v, serial reader %v", size, errs[0], err)
			}
			if err == nil {
				sameLayout(t, fmt.Sprintf("%d-byte pieces", size), tables[0], tb)
			}
		}
		if err != nil {
			return
		}

		var sb strings.Builder
		if err := tb.WriteFlat(&sb); err != nil {
			t.Fatalf("WriteFlat after clean load: %v", err)
		}
		// Write→read must be lossless: reloading our own output yields
		// the identical table (NULL vs explicit "" included).
		tb2 := NewTable(testDef())
		if _, err := tb2.ReadFlat(strings.NewReader(sb.String())); err != nil {
			t.Fatalf("ReadFlat of own output: %v", err)
		}
		sameTables(t, "reload", tb2, tb)
		if a, b := tb.Col(3).dict != nil, tb2.Col(3).dict != nil; a != b {
			t.Fatalf("string layout differs across write→read: dictionary %v, then %v", a, b)
		}
		var sb2 strings.Builder
		if err := tb2.WriteFlat(&sb2); err != nil || sb2.String() != sb.String() {
			t.Fatalf("write→read→write changed the bytes (err %v):\n%q\n%q", err, sb.String(), sb2.String())
		}
	})
}
