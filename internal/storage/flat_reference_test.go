package storage

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"tpcds/internal/schema"
)

// The reader and writer this package shipped before the byte-level ones
// in flat.go, kept as the oracle of the differential tests: a
// bufio.Scanner line loop, a string per field, a []Value per row, and
// Get + String() per written cell. They define the accepted language
// and the bytes written.

// refReadFlat is the reference for Table.ReadFlat.
func refReadFlat(t *Table, r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), flatMaxLine)
	rows := 0
	row := make([]Value, t.NumCols())
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		fields, explicit := splitFlat(line)
		if len(fields) != t.NumCols() {
			return rows, fmt.Errorf("storage: %s row %d has %d fields, want %d",
				t.Def.Name, rows+1, len(fields), t.NumCols())
		}
		for i, f := range fields {
			v, err := parseFlatValue(f, explicit[i], t.Def.Columns[i].Type)
			if err != nil {
				return rows, fmt.Errorf("%s row %d col %s: %w", t.Def.Name, rows+1, t.Def.Columns[i].Name, err)
			}
			row[i] = v
		}
		t.Append(row)
		rows++
	}
	return rows, sc.Err()
}

// splitFlat splits one line into fields, resolving the escapes the
// writer emits. An unescaped '|' terminates a field; the trailing
// delimiter closes the last field rather than opening an empty one
// (lines without the trailing '|' are also accepted). The \e marker
// contributes no bytes but flags the field as an explicit (non-NULL)
// empty string in the parallel explicit slice. A dangling backslash or
// an unknown escape yields the literal character, so arbitrary input
// never fails to split.
func splitFlat(line string) (fields []string, explicit []bool) {
	var b strings.Builder
	cur := false // current field carries the explicit-empty marker
	endedOnDelim := false
	for i := 0; i < len(line); i++ {
		switch c := line[i]; c {
		case '|':
			fields = append(fields, b.String())
			explicit = append(explicit, cur)
			b.Reset()
			cur = false
			endedOnDelim = true
			continue
		case '\\':
			if i+1 < len(line) {
				i++
				switch line[i] {
				case 'n':
					b.WriteByte('\n')
				case 'r':
					b.WriteByte('\r')
				case 'e':
					cur = true
				default:
					b.WriteByte(line[i])
				}
			} else {
				b.WriteByte('\\')
			}
		default:
			b.WriteByte(c)
		}
		endedOnDelim = false
	}
	if !endedOnDelim && (b.Len() > 0 || len(fields) > 0 || cur) {
		fields = append(fields, b.String())
		explicit = append(explicit, cur)
	}
	return fields, explicit
}

// parseFlatValue converts one split field to a Value, honoring the
// explicit-empty marker: \e decodes to the empty string for string
// columns and is rejected for typed columns, which have no empty-string
// value to round-trip.
func parseFlatValue(field string, explicit bool, typ schema.Type) (Value, error) {
	if field == "" && explicit {
		switch typ {
		case schema.Identifier, schema.Integer, schema.Decimal, schema.Date:
			return Null, fmt.Errorf("storage: explicit empty string in %v field", typ)
		}
		return Str(""), nil
	}
	return ParseField(field, typ)
}

// refWriteFlat is the reference for Table.WriteFlat.
func refWriteFlat(t *Table, w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for r := 0; r < t.NumRows(); r++ {
		for c := 0; c < t.NumCols(); c++ {
			v := t.Get(r, c)
			s := v.String()
			if v.K == KindString {
				if s == "" {
					s = `\e`
				} else {
					s = refEscapeFlat(s)
				}
			}
			bw.WriteString(s)
			bw.WriteByte('|')
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

var refEscaper = strings.NewReplacer("|", `\|`, `\`, `\\`, "\n", `\n`, "\r", `\r`)

func refEscapeFlat(s string) string { return refEscaper.Replace(s) }
