package storage

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"

	"tpcds/internal/schema"
)

// Flat-file format: one row per line, fields separated by '|', with a
// trailing '|' before the newline (dsdgen's format). NULL is the empty
// field. Dates are ISO yyyy-mm-dd. String payloads containing the
// delimiter, a backslash, or a line break are backslash-escaped
// (\|, \\, \n, \r), and the empty string is written as the marker
// \e — distinguishing it from NULL — so every string round-trips
// exactly. The marker cannot be forged by payload bytes: a literal
// backslash is always written as \\, so a bare \e in a field can only
// come from the writer.
//
// The reader's grammar, in the order it is applied:
//
//	file  = { line "\n" } [ line ]     a line ends at the first LF; one CR
//	                                   before it is dropped; a line of no
//	                                   bytes is skipped
//	line  = field { "|" field } [ "|" ]  one trailing delimiter closes the
//	                                   last field instead of opening one
//	field = { byte | "\" byte }        "\n" "\r" are LF CR, "\e" is no byte
//	                                   but makes the field an explicit
//	                                   empty string, "\" + any other byte
//	                                   is that byte, a "\" that ends the
//	                                   line is a backslash
//
// A field of no bytes is NULL unless it carries \e, which only string
// columns accept. Typed fields are whatever strconv.ParseInt (base 10),
// strconv.ParseFloat and ParseDate accept after unescaping.

const (
	// flatBlockSize is how much ReadFlat reads at a time; the block
	// buffer is reused for the whole input.
	flatBlockSize = 1 << 18
	// flatMaxLine is the longest line ReadFlat accepts: the block
	// buffer doubles up to this size while a line does not fit.
	flatMaxLine = 1 << 22
	// flatFlushAt is the buffered size at which WriteFlat writes out.
	flatFlushAt = 1 << 16
)

// WriteFlat writes the whole table in flat-file format. Cells are
// rendered from the typed vectors into one reused buffer, so the number
// of allocations does not depend on the row count.
func (t *Table) WriteFlat(w io.Writer) error {
	dicts := t.renderDicts()
	buf := make([]byte, 0, flatFlushAt+flatFlushAt/4)
	for r, n := 0, t.NumRows(); r < n; {
		buf, r = t.appendFlatRows(buf[:0], dicts, r, n, flatFlushAt)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// flatDicts is every dictionary of a table rendered once for the flat
// file, so that a dictionary-coded cell costs one copy. For column c,
// b = ends[c] is -1 without a dictionary, else value i of it renders
// as bytes[ends[b+i]:ends[b+i+1]]. Made in three allocations whatever
// the table's size, it is read-only once made, so workers rendering
// the table share it.
type flatDicts struct {
	ends  []int
	bytes []byte
}

// renderDicts renders the table's dictionaries.
func (t *Table) renderDicts() flatDicts {
	n, size := len(t.cols), 0
	for c := range t.cols {
		if d := t.cols[c].dict; d != nil {
			n += len(d.vals) + 1
			for _, v := range d.vals {
				size += flatStringLen(v)
			}
		}
	}
	f := flatDicts{ends: make([]int, len(t.cols), n), bytes: make([]byte, 0, size)}
	for c := range t.cols {
		d := t.cols[c].dict
		if d == nil {
			f.ends[c] = -1
			continue
		}
		f.ends[c] = len(f.ends)
		f.ends = append(f.ends, len(f.bytes))
		for _, v := range d.vals {
			f.bytes = appendFlatString(f.bytes, v)
			f.ends = append(f.ends, len(f.bytes))
		}
	}
	return f
}

// appendFlatRows renders rows lo, lo+1, ... of the table onto buf in
// flat-file format, up to row hi or until buf holds limit bytes or
// more, whichever comes first, and returns buf and the first row not
// rendered. dicts is t.renderDicts().
func (t *Table) appendFlatRows(buf []byte, dicts flatDicts, lo, hi, limit int) ([]byte, int) {
	r := lo
	for ; r < hi && len(buf) < limit; r++ {
		for c := range t.cols {
			col := &t.cols[c]
			if !IsNull(col.nulls, r) {
				switch physKind(col.Type) {
				case KindInt:
					buf = strconv.AppendInt(buf, col.ints[r], 10)
				case KindFloat:
					buf = appendFlatFloat(buf, col.flts[r])
				case KindDate:
					buf = appendDate(buf, col.ints[r])
				default:
					// Only strings can carry framing bytes; numeric and
					// date renderings never contain '|', '\', or line
					// breaks.
					if b := dicts.ends[c]; b >= 0 {
						i := b + int(col.codes[r])
						buf = append(buf, dicts.bytes[dicts.ends[i]:dicts.ends[i+1]]...)
					} else {
						buf = appendFlatString(buf, col.strs[r])
					}
				}
			}
			buf = append(buf, '|')
		}
		buf = append(buf, '\n')
	}
	return buf, r
}

// appendFlatFloat appends Float(f).String(): two decimals when that
// parses back to f, the shortest exact rendering otherwise. c/100 with
// |c| < 2^53 is computed exactly as ParseFloat computes "c/100", and
// below 1e13 the nearest two-decimal number to f is unique, so the
// round trip holds exactly when the cents of f divide back to f.
func appendFlatFloat(buf []byte, f float64) []byte {
	if a := math.Abs(f); a < 1e13 {
		cents := math.Round(a * 100)
		if cents/100 == a {
			if math.Signbit(f) {
				buf = append(buf, '-')
			}
			c := uint64(cents)
			buf = strconv.AppendUint(buf, c/100, 10)
			return append(buf, '.', byte('0'+c/10%10), byte('0'+c%10))
		}
	}
	return append(buf, Float(f).String()...)
}

// flatStringLen returns the length appendFlatString renders s to.
func flatStringLen(s string) int {
	if s == "" {
		return 2
	}
	n := len(s)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '|', '\\', '\n', '\r':
			n++
		}
	}
	return n
}

// appendFlatString appends a string payload protected from the
// flat-file framing: the field delimiter, the escape character itself,
// and line breaks (the reader is line-based, so an unescaped newline
// would split the row). An empty field means NULL, so "" is spelled out
// as the marker \e.
func appendFlatString(buf []byte, s string) []byte {
	if s == "" {
		return append(buf, '\\', 'e')
	}
	run := 0 // start of the bytes not yet copied
	for i := 0; i < len(s); i++ {
		var esc byte
		switch s[i] {
		case '|':
			esc = '|'
		case '\\':
			esc = '\\'
		case '\n':
			esc = 'n'
		case '\r':
			esc = 'r'
		default:
			continue
		}
		buf = append(append(buf, s[run:i]...), '\\', esc)
		run = i + 1
	}
	return append(buf, s[run:]...)
}

// ParseField converts one flat-file field to a Value of the given
// logical type. The empty field is NULL.
func ParseField(field string, typ schema.Type) (Value, error) {
	if field == "" {
		return Null, nil
	}
	switch typ {
	case schema.Identifier, schema.Integer:
		v, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return Null, fmt.Errorf("storage: bad integer field %q: %w", field, err)
		}
		return Int(v), nil
	case schema.Decimal:
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return Null, fmt.Errorf("storage: bad decimal field %q: %w", field, err)
		}
		return Float(v), nil
	case schema.Date:
		d, err := ParseDate(field)
		if err != nil {
			return Null, err
		}
		return DateV(d), nil
	default:
		return Str(field), nil
	}
}

// ReadFlat loads flat-file rows into the table, appending to existing
// content. It returns the number of rows loaded. An error names the
// table, the 1-based line of the input and the column; the rows before
// that line stay loaded and the failing row leaves nothing behind.
func (t *Table) ReadFlat(r io.Reader) (int, error) {
	return t.readFlat(r, flatBlockSize, flatMaxLine)
}

// readFlat is ReadFlat with the block and line limits as parameters
// (tests shrink them to put refills inside fields).
func (t *Table) readFlat(r io.Reader, blockSize, maxLine int) (rows int, err error) {
	if len(t.cols) == 0 {
		return 0, fmt.Errorf("storage: read %s: table has no columns", t.Def.Name)
	}
	defer func() { t.epoch += uint64(rows) }()
	// Input that cannot be counted first grows its vectors by doubling;
	// hand back what that overshot.
	defer t.fit()
	buf := make([]byte, blockSize)
	lines, err := countLines(r, buf)
	if err != nil {
		return 0, fmt.Errorf("storage: read %s: %w", t.Def.Name, err)
	}
	t.Grow(lines)
	return t.decodeFlat(r, buf, 0, maxLine)
}

// decodeFlat appends the lines r delivers to t, numbering them on from
// line in messages. buf is the block buffer; a copy of it doubles up to
// maxLine bytes while a line does not fit. An error names the table,
// the line and the column, and the failing row leaves nothing behind.
func (t *Table) decodeFlat(r io.Reader, buf []byte, line, maxLine int) (rows int, err error) {
	d := flatDecoder{t: t, kinds: t.physKinds()}
	fail := func(line, col int, cause error) error {
		return fmt.Errorf("storage: read %s: line %d, column %s: %w", t.Def.Name, line, t.Def.Columns[col].Name, cause)
	}
	decode := func(line []byte, lineNo int) error {
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) == 0 {
			return nil
		}
		before := t.NumRows()
		if col, cause := d.row(line); cause != nil {
			t.truncate(before)
			return fail(lineNo, col, cause)
		}
		rows++
		return nil
	}

	start, end := 0, 0 // buf[start:end] is read and not yet decoded
	lineNo := line     // lines decoded so far
	for idle, eof := 0, false; !eof; {
		if start > 0 {
			end = copy(buf, buf[start:end])
			start = 0
		}
		if end == len(buf) {
			// A whole buffer without a line break.
			if len(buf) >= maxLine {
				col := max(min(countFlatFields(buf), len(t.cols))-1, 0)
				return rows, fail(lineNo+1, col, fmt.Errorf("line longer than %d bytes", maxLine))
			}
			grown := make([]byte, min(2*len(buf), maxLine))
			copy(grown, buf)
			buf = grown
		}
		n, rerr := r.Read(buf[end:])
		end += n
		switch {
		case rerr == io.EOF:
			eof = true
		case rerr != nil:
			return rows, fmt.Errorf("storage: read %s: after line %d: %w", t.Def.Name, lineNo, rerr)
		case n > 0:
			idle = 0
		default:
			if idle++; idle >= 100 {
				return rows, fmt.Errorf("storage: read %s: after line %d: %w", t.Def.Name, lineNo, io.ErrNoProgress)
			}
			continue
		}
		for {
			i := bytes.IndexByte(buf[start:end], '\n')
			if i < 0 {
				break
			}
			lineNo++
			if err := decode(buf[start:start+i], lineNo); err != nil {
				return rows, err
			}
			start += i + 1
		}
		if eof && start < end {
			if err := decode(buf[start:end], lineNo+1); err != nil {
				return rows, err
			}
		}
	}
	return rows, nil
}

// fit moves every vector of t with more than a sixteenth of its array
// unused into an array of its own length.
func (t *Table) fit() {
	for i := range t.cols {
		c := &t.cols[i]
		c.nulls, c.ints, c.flts = fit(c.nulls), fit(c.ints), fit(c.flts)
		c.strs, c.codes = fit(c.strs), fit(c.codes)
	}
}

// fit returns v in an array of its own length when more than a
// sixteenth of v's array is unused, else v.
func fit[T any](v []T) []T {
	if cap(v)-len(v) > len(v)/16 {
		return append(make([]T, 0, len(v)), v...)
	}
	return v
}

// countLines returns how many lines r is about to deliver at most,
// when r can be rewound (files, in-memory readers): it reads r to its
// end through buf, counting line breaks, and seeks back. It returns 0
// for any other reader. A read error ends the count early and is left
// for the decoding pass to meet again and report.
func countLines(r io.Reader, buf []byte) (int, error) {
	s, ok := r.(io.Seeker)
	if !ok {
		return 0, nil
	}
	start, err := s.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, nil // a pipe or the like: nothing read, nothing to undo
	}
	lines := 1 // the last line may lack its line break
	for {
		n, err := r.Read(buf)
		lines += bytes.Count(buf[:n], []byte{'\n'})
		if n == 0 || err != nil {
			break
		}
	}
	_, err = s.Seek(start, io.SeekStart)
	return lines, err
}

// flatDecoder appends flat-file lines to a table's column vectors.
type flatDecoder struct {
	t       *Table
	kinds   []Kind
	scratch []byte // the unescaped bytes of one field
}

// row appends one non-empty line (line break removed) as the table's
// next row. Each field is first tried on a fast path that decodes the
// plain spelling of its column's type straight from the bytes — digits
// with an optional '-', digits '.' digits, dddd-dd-dd, a string without
// a backslash; any other spelling is unescaped and handed to ParseField,
// so the fast paths decide how fast a field is read, never whether it
// is accepted. On error the returned column is where the line went
// wrong and the columns before it hold one value too many.
func (d *flatDecoder) row(line []byte) (col int, err error) {
	cols := d.t.cols
	pos := 0 // start of the next field; past len(line) once a field ran to the end of the line
	for ci := range cols {
		c := &cols[ci]
		if pos >= len(line) {
			return ci, fmt.Errorf("row ends after %d of %d fields", ci, len(cols))
		}
		if line[pos] == '|' {
			c.appendNull(d.kinds[ci])
			pos++
			continue
		}
		end, ok := 0, false // end is the index of the field's delimiter, or len(line)
		switch d.kinds[ci] {
		case KindInt:
			var v int64
			if v, end, ok = scanInt(line, pos); ok {
				c.ints = append(c.ints, v)
			}
		case KindFloat:
			var v float64
			if v, end, ok = scanDecimal(line, pos); ok {
				c.flts = append(c.flts, v)
			}
		case KindDate:
			var v int64
			if v, end, ok = scanDate(line, pos); ok {
				c.ints = append(c.ints, v)
			}
		default:
			end = pos
			for end < len(line) && line[end] != '|' && line[end] != '\\' {
				end++
			}
			if ok = end == len(line) || line[end] == '|'; ok {
				appendStr(c, line[pos:end])
			}
		}
		if !ok {
			var field []byte
			var explicit bool
			field, explicit, end = d.unescape(line, pos)
			if err := d.appendSlow(ci, field, explicit); err != nil {
				return ci, err
			}
		} else if c.nulls != nil {
			c.nulls = append(c.nulls, false)
		}
		pos = end + 1
	}
	if pos < len(line) {
		return len(cols) - 1, fmt.Errorf("%d fields, want %d", countFlatFields(line), len(cols))
	}
	return 0, nil
}

// unescape resolves the escapes of the field starting at line[pos] into
// the scratch buffer. It returns the payload, whether the field carries
// the \e marker, and the index of the field's delimiter or len(line).
func (d *flatDecoder) unescape(line []byte, pos int) (field []byte, explicit bool, end int) {
	b := d.scratch[:0]
	i := pos
	for ; i < len(line) && line[i] != '|'; i++ {
		c := line[i]
		if c == '\\' && i+1 < len(line) {
			i++
			switch c = line[i]; c {
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 'e':
				explicit = true
				continue
			}
		}
		b = append(b, c)
	}
	d.scratch = b
	return b, explicit, i
}

// appendSlow appends an unescaped field to column ci through ParseField.
func (d *flatDecoder) appendSlow(ci int, field []byte, explicit bool) error {
	c := &d.t.cols[ci]
	if d.kinds[ci] == KindString {
		if len(field) == 0 && !explicit {
			c.appendNull(KindString)
			return nil
		}
		appendStr(c, field)
		if c.nulls != nil {
			c.nulls = append(c.nulls, false)
		}
		return nil
	}
	if len(field) == 0 && explicit {
		// Typed columns have no empty-string value to round-trip.
		return fmt.Errorf("explicit empty string in %v field", c.Type)
	}
	v, err := ParseField(string(field), c.Type)
	if err != nil {
		return err
	}
	c.Append(v)
	return nil
}

// hashBytes mixes b eight bytes at a time.
func hashBytes[T ~string | ~[]byte](b T) uint64 {
	const m = 0x9E3779B97F4A7C15
	h := uint64(len(b)) * m
	for ; len(b) >= 8; b = b[8:] {
		w := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		h = (h ^ w) * m
		h ^= h >> 32
	}
	var tail uint64
	for i := 0; i < len(b); i++ {
		tail |= uint64(b[i]) << (8 * i)
	}
	h = (h ^ tail) * m
	return h ^ h>>29
}

// countFlatFields returns the number of fields the line has under the
// reader's grammar (for messages; decoding does not need it).
func countFlatFields(line []byte) int {
	n := 0
	open := false // bytes seen since the last delimiter
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '|':
			n++
			open = false
			continue
		case '\\':
			i++
		}
		open = true
	}
	if open {
		n++
	}
	return n
}

// fieldEnds reports whether the field that started earlier ends at i.
func fieldEnds(line []byte, i int) bool { return i == len(line) || line[i] == '|' }

// scanInt decodes [-]digits of at most 18 digits (always inside int64).
func scanInt(line []byte, i int) (v int64, end int, ok bool) {
	neg := line[i] == '-'
	if neg {
		i++
	}
	start := i
	for ; i < len(line) && line[i]-'0' <= 9; i++ {
		v = v*10 + int64(line[i]-'0')
	}
	if n := i - start; n == 0 || n > 18 || !fieldEnds(line, i) {
		return 0, 0, false
	}
	if neg {
		v = -v
	}
	return v, i, true
}

// scanDecimal decodes [-]digits[.digits] of at most 15 digits in all:
// mantissa and power of ten are then exact float64s and their quotient
// is the correctly rounded value, which is what ParseFloat returns.
func scanDecimal(line []byte, i int) (f float64, end int, ok bool) {
	neg := line[i] == '-'
	if neg {
		i++
	}
	start := i
	var m uint64
	for ; i < len(line) && line[i]-'0' <= 9; i++ {
		m = m*10 + uint64(line[i]-'0')
	}
	digits, frac := i-start, 0
	if digits > 0 && i < len(line) && line[i] == '.' {
		i++
		start = i
		for ; i < len(line) && line[i]-'0' <= 9; i++ {
			m = m*10 + uint64(line[i]-'0')
		}
		if frac = i - start; frac == 0 {
			return 0, 0, false
		}
	}
	if digits == 0 || digits+frac > 15 || !fieldEnds(line, i) {
		return 0, 0, false
	}
	f = float64(m) / math.Pow10(frac)
	if neg {
		f = -f
	}
	return f, i, true
}

// scanDate decodes dddd-dd-dd when it names a day of the calendar.
func scanDate(line []byte, i int) (days int64, end int, ok bool) {
	end = i + 10
	if end > len(line) || !fieldEnds(line, end) || line[i+4] != '-' || line[i+7] != '-' {
		return 0, 0, false
	}
	num := func(from, to int) int {
		n := 0
		for _, c := range line[from:to] {
			if c-'0' > 9 {
				return -1
			}
			n = n*10 + int(c-'0')
		}
		return n
	}
	y, m, d := num(i, i+4), num(i+5, i+7), num(i+8, end)
	if y < 0 || m < 1 || m > 12 || d < 1 || d > daysIn(y, m) {
		return 0, 0, false
	}
	return DaysFromYMD(y, m, d), end, true
}
