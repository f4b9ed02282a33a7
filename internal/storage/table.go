package storage

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"tpcds/internal/schema"
)

// Column is a typed column vector. The physical representation is
// chosen by the logical schema type: identifiers, integers and dates
// share the int64 vector; decimals use float64; char/varchar start
// dictionary-encoded — one uint16 code per row into a dictionary of the
// distinct values in first-seen order — and fall back for good to one
// string per row when the column's own values show a dictionary does
// not pay (see encode). Exactly one payload vector is in use; the others
// stay nil. The null vector exists only once the column has held a
// NULL: nil means no row is NULL, and a vector that exists has one
// entry per row. The first NULL creates it, all false, at the column's
// length.
type Column struct {
	Type  schema.Type
	ints  []int64
	flts  []float64
	strs  []string // plain layout: dict == nil
	codes []uint16 // dictionary layout: row i holds dict.vals[codes[i]]
	dict  *strDict
	nulls []bool
}

const (
	// dictMax is the number of values one code width can name.
	dictMax = 1 << 16
	// dictTrial is the dictionary size up to which a column is not yet
	// judged by its ratio of distinct values to rows.
	dictTrial = 256
	// dictRecent is the size of the value cache in front of the
	// dictionary's map (a power of two).
	dictRecent = 256
)

// strDict is the dictionary of a string column. Codes are handed out in
// first-seen order and never change or get reused: values no row holds
// any more (deleted, overwritten, rolled back) keep theirs.
type strDict struct {
	vals   []string
	codes  map[string]uint16
	recent [dictRecent]uint16 // direct-mapped by value hash: the code last handed out
}

// encode returns the dictionary code of v, entering v when it is new.
// A column gives its dictionary up instead (ok is false and the column
// is plain from here on) when a new value finds the dictionary full, or
// when past dictTrial values more than half the rows so far introduced
// one: the codes would then cost more than the strings they save. The
// column decides from what it holds and decides once, so equal data
// always ends in the equal layout and no reader has to choose.
func encode[T ~string | ~[]byte](c *Column, v T) (code uint16, ok bool) {
	d := c.dict
	slot := &d.recent[hashBytes(v)&(dictRecent-1)]
	if int(*slot) < len(d.vals) && d.vals[*slot] == string(v) {
		return *slot, true
	}
	if d.codes == nil { // an adopted dictionary (Table.Adopt)
		d.codes = make(map[string]uint16, len(d.vals))
		for i, s := range d.vals {
			d.codes[s] = uint16(i)
		}
	}
	if code, ok = d.codes[string(v)]; !ok {
		n := len(d.vals)
		if n == dictMax || n >= dictTrial && 2*n > len(c.codes) {
			c.decode()
			return 0, false
		}
		code = uint16(n)
		s := string(v)
		d.vals = append(d.vals, s)
		d.codes[s] = code
	}
	*slot = code
	return code, true
}

// decode turns a dictionary column into a plain one of the same
// capacity. (A NULL row's code is 0 and decodes to whatever value came
// first; nothing reads a NULL row's payload.)
func (c *Column) decode() {
	c.strs = make([]string, len(c.codes), cap(c.codes))
	for i, code := range c.codes {
		c.strs[i] = c.dict.vals[code]
	}
	c.codes, c.dict = nil, nil
}

// appendStr appends the payload of a non-NULL string cell.
func appendStr[T ~string | ~[]byte](c *Column, v T) {
	if c.dict != nil {
		if code, ok := encode(c, v); ok {
			c.codes = append(c.codes, code)
			return
		}
	}
	c.strs = append(c.strs, string(v))
}

// str returns the string at row i of a string column.
func (c *Column) str(i int) string {
	if c.dict != nil {
		return c.dict.vals[c.codes[i]]
	}
	return c.strs[i]
}

func physKind(t schema.Type) Kind {
	switch t {
	case schema.Identifier, schema.Integer:
		return KindInt
	case schema.Decimal:
		return KindFloat
	case schema.Date:
		return KindDate
	default:
		return KindString
	}
}

// Len returns the number of entries in the column: the length of its
// one payload vector in use (the others are nil).
func (c *Column) Len() int { return len(c.ints) + len(c.flts) + len(c.strs) + len(c.codes) }

// nullVec returns the null vector, creating it on the column's first
// NULL: all false at the column's length, with its payload's capacity.
func (c *Column) nullVec() []bool {
	if c.nulls == nil {
		n := c.Len()
		c.nulls = make([]bool, n, max(cap(c.ints)+cap(c.flts)+cap(c.strs)+cap(c.codes), n+1))
	}
	return c.nulls
}

// Get returns the value at row i.
func (c *Column) Get(i int) Value {
	if IsNull(c.nulls, i) {
		return Null
	}
	switch physKind(c.Type) {
	case KindInt:
		return Int(c.ints[i])
	case KindFloat:
		return Float(c.flts[i])
	case KindDate:
		return DateV(c.ints[i])
	default:
		return Str(c.str(i))
	}
}

// appendNull adds a NULL to a column of physical kind k.
func (c *Column) appendNull(k Kind) {
	c.nulls = append(c.nullVec(), true)
	switch k {
	case KindInt, KindDate:
		c.ints = append(c.ints, 0)
	case KindFloat:
		c.flts = append(c.flts, 0)
	default:
		if c.dict != nil {
			c.codes = append(c.codes, 0)
		} else {
			c.strs = append(c.strs, "")
		}
	}
}

// truncate drops the entries from n on.
func (c *Column) truncate(n int) {
	if c.nulls != nil {
		c.nulls = c.nulls[:n]
	}
	c.ints, c.flts = c.ints[:min(n, len(c.ints))], c.flts[:min(n, len(c.flts))]
	c.strs, c.codes = c.strs[:min(n, len(c.strs))], c.codes[:min(n, len(c.codes))]
}

// Append adds a value, coercing to the column's physical type. Appending
// a value of an incompatible kind panics (generator and loader bugs
// should fail loudly, not corrupt data).
func (c *Column) Append(v Value) {
	if v.IsNull() {
		c.AppendNull()
		return
	}
	switch physKind(c.Type) {
	case KindInt, KindDate:
		if v.K != KindInt && v.K != KindDate {
			c.wrongKind(v.K)
		}
		c.AppendInt(v.I)
	case KindFloat:
		if v.K != KindFloat && v.K != KindInt {
			c.wrongKind(v.K)
		}
		c.AppendFloat(v.AsFloat())
	default:
		if v.K != KindString {
			c.wrongKind(v.K)
		}
		c.AppendString(v.S)
	}
}

// The logical types each typed append accepts, one bit per schema.Type,
// so that the kind check is one test per cell.
const (
	intTypes = 1<<schema.Identifier | 1<<schema.Integer | 1<<schema.Date
	strTypes = 1<<schema.Char | 1<<schema.Varchar
)

// wrongKind panics on a cell of kind k appended to the column.
func (c *Column) wrongKind(k Kind) {
	panic(fmt.Sprintf("storage: appending %v to %v column", k, c.Type))
}

// AppendInt appends a non-NULL cell to an identifier, integer or date
// column (a date as days since 1900-01-01); a column of another kind
// panics. Append and the generators write through these typed appends.
func (c *Column) AppendInt(v int64) {
	if 1<<c.Type&intTypes == 0 {
		c.wrongKind(KindInt)
	}
	if c.nulls != nil {
		c.nulls = append(c.nulls, false)
	}
	c.ints = append(c.ints, v)
}

// AppendFloat appends a non-NULL cell to a decimal column.
func (c *Column) AppendFloat(v float64) {
	if c.Type != schema.Decimal {
		c.wrongKind(KindFloat)
	}
	if c.nulls != nil {
		c.nulls = append(c.nulls, false)
	}
	c.flts = append(c.flts, v)
}

// AppendString appends a non-NULL cell to a string column, through
// the dictionary while the column keeps one.
func (c *Column) AppendString(v string) {
	if 1<<c.Type&strTypes == 0 {
		c.wrongKind(KindString)
	}
	if c.nulls != nil {
		c.nulls = append(c.nulls, false)
	}
	appendStr(c, v)
}

// AppendNull appends a NULL to a column of any kind.
func (c *Column) AppendNull() { c.appendNull(physKind(c.Type)) }

// AppendN adds n copies of v: the column ends as n calls of Append(v)
// leave it — the same vectors, dictionary and layout, and the same
// panic — but v is checked and dictionary-encoded once. The
// cross-product dimensions are built from such runs, a column at a
// time.
func (c *Column) AppendN(v Value, n int) {
	if n <= 0 {
		return
	}
	c.Append(v) // the checks, and a new string's one dictionary entry
	n--
	if c.nulls != nil {
		c.nulls = repeatLast(c.nulls, n)
	}
	switch physKind(c.Type) {
	case KindInt, KindDate:
		c.ints = repeatLast(c.ints, n)
	case KindFloat:
		c.flts = repeatLast(c.flts, n)
	default:
		if c.dict != nil {
			c.codes = repeatLast(c.codes, n)
		} else {
			c.strs = repeatLast(c.strs, n)
		}
	}
}

// repeatLast appends n copies of the last element of v.
func repeatLast[T any](v []T, n int) []T {
	x := v[len(v)-1]
	v = slices.Grow(v, n)
	run := v[len(v) : len(v)+n]
	for i := range run {
		run[i] = x
	}
	return v[:len(v)+n]
}

// Set overwrites the value at row i (used by in-place dimension updates,
// Figure 8).
func (c *Column) Set(i int, v Value) {
	if v.IsNull() {
		c.nullVec()[i] = true
		return
	}
	if c.nulls != nil {
		c.nulls[i] = false
	}
	switch physKind(c.Type) {
	case KindInt, KindDate:
		c.ints[i] = v.I
	case KindFloat:
		c.flts[i] = v.AsFloat()
	default:
		if c.dict != nil {
			if code, ok := encode(c, v.S); ok {
				c.codes[i] = code
				return
			}
		}
		c.strs[i] = v.S
	}
}

// tableInstances issues process-unique table instance ids. Two tables
// can share a schema name (a CTE materialized by two concurrent
// queries, a table reloaded from flat files); caches keyed by name
// alone would serve one instance's derived data for the other, so every
// cache entry must also remember which instance — and which mutation
// epoch of it — the data was derived from.
var tableInstances atomic.Uint64

// Table is a columnar table instance bound to its schema definition.
type Table struct {
	Def  *schema.Table
	cols []Column

	// id is the process-unique instance identity; epoch counts data
	// mutations (appends, updates, deletes). Together they version the
	// table's contents for derived-data caches: statistics and indexes
	// are fresh only while both match. A row-count comparison is not
	// enough — a maintenance cycle that deletes and inserts the same
	// number of rows changes the data without changing NumRows.
	id    uint64
	epoch uint64
}

// NewTable creates an empty table for the given schema definition.
func NewTable(def *schema.Table) *Table {
	t := &Table{Def: def, cols: make([]Column, len(def.Columns)), id: tableInstances.Add(1)}
	for i, c := range def.Columns {
		t.cols[i].Type = c.Type
		if physKind(c.Type) == KindString {
			t.cols[i].dict = &strDict{codes: map[string]uint16{}}
		}
	}
	return t
}

// Grow makes room for n additional rows, avoiding repeated reallocation
// during bulk loads; vectors that already have the room are left alone.
func (t *Table) Grow(n int) {
	for i := range t.cols {
		c := &t.cols[i]
		if c.nulls != nil {
			c.nulls = slices.Grow(c.nulls, n)
		}
		switch physKind(c.Type) {
		case KindInt, KindDate:
			c.ints = slices.Grow(c.ints, n)
		case KindFloat:
			c.flts = slices.Grow(c.flts, n)
		default:
			if c.dict != nil {
				c.codes = slices.Grow(c.codes, n)
			} else {
				c.strs = slices.Grow(c.strs, n)
			}
		}
	}
}

// ID returns the process-unique instance id of this table. Two tables
// with the same schema name (separate materializations of a CTE, a
// reload) have different ids.
func (t *Table) ID() uint64 { return t.id }

// Epoch returns the table's data epoch: a counter bumped by every
// mutating operation (Append, SetValue, Delete). Derived-data
// caches store the (ID, Epoch) pair at derivation time and are fresh
// only while both still match.
func (t *Table) Epoch() uint64 { return t.epoch }

// NumRows returns the table's row count.
func (t *Table) NumRows() int {
	if len(t.cols) == 0 {
		return 0
	}
	return t.cols[0].Len()
}

// physKinds returns the physical kind of every column.
func (t *Table) physKinds() []Kind {
	kinds := make([]Kind, len(t.cols))
	for i := range t.cols {
		kinds[i] = physKind(t.cols[i].Type)
	}
	return kinds
}

// truncate drops the rows from n on, including a row only some columns
// have yet (a flat-file line that failed part-way).
func (t *Table) truncate(n int) {
	for i := range t.cols {
		if t.cols[i].Len() > n {
			t.cols[i].truncate(n)
		}
	}
}

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.cols) }

// Col returns the column vector at position i.
func (t *Table) Col(i int) *Column { return &t.cols[i] }

// ColByName returns the named column vector, or nil.
func (t *Table) ColByName(name string) *Column {
	i := t.Def.ColumnIndex(name)
	if i < 0 {
		return nil
	}
	return &t.cols[i]
}

// Get returns the value at (row, col).
func (t *Table) Get(row, col int) Value { return t.cols[col].Get(row) }

// Row materializes row i as a value slice.
func (t *Table) Row(i int) []Value {
	out := make([]Value, len(t.cols))
	for c := range t.cols {
		out[c] = t.cols[c].Get(i)
	}
	return out
}

// Append adds a row. The row length must match the column count.
func (t *Table) Append(row []Value) {
	if len(row) != len(t.cols) {
		panic(fmt.Sprintf("storage: row width %d != table width %d for %s",
			len(row), len(t.cols), t.Def.Name))
	}
	for i, v := range row {
		t.cols[i].Append(v)
	}
	t.epoch++
}

// A Writer appends rows to a table a cell at a time, in column order,
// through the columns' typed appends: no row of Values is built. EndRow
// ends each row, and Close ends the writing.
type Writer struct {
	t    *Table
	col  int // the column of the next cell
	rows int // the table's rows when the writer was made
}

// Writer returns a writer that appends to t.
func (t *Table) Writer() *Writer { return &Writer{t: t, rows: t.NumRows()} }

// next returns the column of the next cell and moves past it.
func (w *Writer) next() *Column {
	c := &w.t.cols[w.col]
	w.col++
	return c
}

// Int writes an identifier, integer or date cell (Column.AppendInt).
func (w *Writer) Int(v int64) { w.next().AppendInt(v) }

// Float writes a decimal cell (Column.AppendFloat).
func (w *Writer) Float(v float64) { w.next().AppendFloat(v) }

// Str writes a string cell (Column.AppendString).
func (w *Writer) Str(v string) { w.next().AppendString(v) }

// Null writes a NULL cell.
func (w *Writer) Null() { w.next().AppendNull() }

// EndRow ends a row; it panics unless the row has a cell for every
// column.
func (w *Writer) EndRow() {
	if w.col != len(w.t.cols) {
		panic(fmt.Sprintf("storage: row of %d cells for %d columns in %s", w.col, len(w.t.cols), w.t.Def.Name))
	}
	w.col = 0
}

// Close ends the writing. It panics, naming the table, unless every
// column holds the same number of rows, and bumps the epoch once per
// row written, as per-row Appends would have.
func (w *Writer) Close() {
	t := w.t
	n := t.NumRows()
	for i := range t.cols {
		if t.cols[i].Len() != n {
			panic(fmt.Sprintf("storage: ragged table %s: column %s holds %d rows, column %s %d",
				t.Def.Name, t.Def.Columns[0].Name, n, t.Def.Columns[i].Name, t.cols[i].Len()))
		}
	}
	t.epoch += uint64(n - w.rows)
}

// SetValue overwrites a single cell.
func (t *Table) SetValue(row, col int, v Value) {
	t.cols[col].Set(row, v)
	t.epoch++
}

// Delete removes the given row ids (any order, duplicates and ids out
// of range ignored) and compacts the table, keeping each vector's
// capacity; a column without a null vector stays without one. The ids
// are sorted only when they are not already, and the rows kept between
// two victims move down as one run. Fact-table deletes are logically
// clustered on a date range (§4.2), so the runs are few and long.
// Returns the number of rows removed; the epoch rises by one when that
// is not zero.
func (t *Table) Delete(rowIDs []int) int {
	ids := sortedVictims(rowIDs, t.NumRows())
	if len(ids) == 0 {
		return 0
	}
	t.epoch++
	for c := range t.cols {
		col := &t.cols[c]
		col.nulls = dropRows(col.nulls, ids)
		col.ints, col.flts = dropRows(col.ints, ids), dropRows(col.flts, ids)
		col.strs, col.codes = dropRows(col.strs, ids), dropRows(col.codes, ids)
	}
	return len(ids)
}

// sortedVictims returns the distinct ids in [0, n) in ascending order:
// ids itself when it already is that, else a sorted copy without
// duplicates or ids out of range.
func sortedVictims(ids []int, n int) []int {
	clean := len(ids) == 0 || ids[0] >= 0 && ids[len(ids)-1] < n
	for i := 1; clean && i < len(ids); i++ {
		clean = ids[i-1] < ids[i]
	}
	if clean {
		return ids
	}
	ids = slices.Clone(ids)
	slices.Sort(ids)
	ids = slices.Compact(ids)
	lo, _ := slices.BinarySearch(ids, 0)
	hi, _ := slices.BinarySearch(ids, n)
	return ids[lo:hi]
}

// dropRows removes the entries at ids (ascending, distinct, in range)
// from v, moving each run of kept entries down with one copy. An empty
// vector (a payload not in use, a missing null vector) is returned as
// it is.
func dropRows[T any](v []T, ids []int) []T {
	if len(v) == 0 {
		return v
	}
	w := ids[0]
	for i, id := range ids {
		end := len(v)
		if i+1 < len(ids) {
			end = ids[i+1]
		}
		w += copy(v[w:], v[id+1:end])
	}
	return v[:w]
}

// Raw exposes the column's physical vectors for vectorized execution:
// the physical kind, the payload slice valid for that kind, and the
// null vector — nil when no row is NULL, else one entry per row. A
// string column has either strs, or codes with the dictionary they
// index (row i holds dict[codes[i]]; the order of dict means nothing).
// Callers must treat the slices as read-only.
func (c *Column) Raw() (k Kind, ints []int64, flts []float64, strs []string, codes []uint16, dict []string, nulls []bool) {
	if c.dict != nil {
		dict = c.dict.vals
	}
	return physKind(c.Type), c.ints, c.flts, c.strs, c.codes, dict, c.nulls
}

// Adopt is Raw's inverse: column col of t, still empty, takes over
// vectors laid out as Raw returns them — the payload of the column's
// physical kind (for a string column codes with the dictionary they
// index, or plain strings) and a null vector, kept only when it holds
// a NULL. Nothing is copied, so the caller must write none of the
// vectors afterwards. The dictionary's lookup map is built on the first
// value encoded into it, if any ever is.
func (t *Table) Adopt(col int, ints []int64, flts []float64, strs []string, codes []uint16, dict []string, nulls []bool) {
	c := &t.cols[col]
	if c.Len() != 0 {
		panic(fmt.Sprintf("storage: adopting vectors into column %d, which holds rows", col))
	}
	switch physKind(c.Type) {
	case KindInt, KindDate:
		c.ints = ints
	case KindFloat:
		c.flts = flts
	default:
		c.strs, c.codes, c.dict = strs, nil, nil
		if dict != nil {
			c.strs, c.codes, c.dict = nil, codes, &strDict{vals: dict[:len(dict):len(dict)]}
		}
	}
	if c.nulls = nil; slices.Contains(nulls, true) {
		c.nulls = nulls
	}
	if c.nulls != nil && len(c.nulls) != c.Len() {
		panic(fmt.Sprintf("storage: adopted null vector of %d rows beside a payload of %d", len(c.nulls), c.Len()))
	}
	t.epoch++
}

// ScanInt64 returns the raw int64 vector and null vector for a key
// column — the zero-copy path used by hash joins and bitmap index
// construction; nulls is nil when no row is NULL. It panics if the
// column is not integer-typed.
func (t *Table) ScanInt64(col int) (vals []int64, nulls []bool) {
	c := &t.cols[col]
	if k := physKind(c.Type); k != KindInt && k != KindDate {
		panic(fmt.Sprintf("storage: ScanInt64 on %v column", c.Type))
	}
	return c.ints, c.nulls
}

// IsNull reports whether row i is NULL by a null vector from Raw or
// ScanInt64: a nil vector holds no NULL.
func IsNull(nulls []bool, i int) bool { return nulls != nil && nulls[i] }

// DB is a named collection of tables — the system under test.
type DB struct {
	tables map[string]*Table
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{tables: map[string]*Table{}} }

// Create registers an empty table for def, replacing any previous
// instance with the same name.
func (db *DB) Create(def *schema.Table) *Table {
	t := NewTable(def)
	db.tables[def.Name] = t
	return t
}

// Put registers an existing table.
func (db *DB) Put(t *Table) { db.tables[t.Def.Name] = t }

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table { return db.tables[name] }

// Names returns the registered table names, sorted.
func (db *DB) Names() []string {
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TotalRows sums row counts over all tables.
func (db *DB) TotalRows() int64 {
	var n int64
	for _, t := range db.tables {
		n += int64(t.NumRows())
	}
	return n
}
