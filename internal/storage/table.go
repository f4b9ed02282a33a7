package storage

import (
	"fmt"
	"sort"
	"sync/atomic"

	"tpcds/internal/schema"
)

// Column is a typed column vector with a null bitmap. The physical
// representation is chosen by the logical schema type: identifiers,
// integers and dates share the int64 vector; decimals use float64;
// char/varchar use the string vector.
type Column struct {
	Type  schema.Type
	ints  []int64
	flts  []float64
	strs  []string
	nulls []bool
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

// Len returns the number of entries in the column.
func (c *Column) Len() int { return len(c.nulls) }

// Get returns the value at row i.
func (c *Column) Get(i int) Value {
	if c.nulls[i] {
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
		return Str(c.strs[i])
	}
}

// appendNull adds a NULL to a column of physical kind k.
func (c *Column) appendNull(k Kind) {
	c.nulls = append(c.nulls, true)
	switch k {
	case KindInt, KindDate:
		c.ints = append(c.ints, 0)
	case KindFloat:
		c.flts = append(c.flts, 0)
	default:
		c.strs = append(c.strs, "")
	}
}

// truncate drops the entries from n on.
func (c *Column) truncate(n int) {
	c.nulls = c.nulls[:n]
	switch physKind(c.Type) {
	case KindInt, KindDate:
		c.ints = c.ints[:n]
	case KindFloat:
		c.flts = c.flts[:n]
	default:
		c.strs = c.strs[:n]
	}
}

// Append adds a value, coercing to the column's physical type. Appending
// a value of an incompatible kind panics (generator and loader bugs
// should fail loudly, not corrupt data).
func (c *Column) Append(v Value) {
	if v.IsNull() {
		c.appendNull(physKind(c.Type))
		return
	}
	c.nulls = append(c.nulls, false)
	switch physKind(c.Type) {
	case KindInt, KindDate:
		if v.K != KindInt && v.K != KindDate {
			panic(fmt.Sprintf("storage: appending %v to %v column", v.K, c.Type))
		}
		c.ints = append(c.ints, v.I)
	case KindFloat:
		if v.K != KindFloat && v.K != KindInt {
			panic(fmt.Sprintf("storage: appending %v to decimal column", v.K))
		}
		c.flts = append(c.flts, v.AsFloat())
	default:
		if v.K != KindString {
			panic(fmt.Sprintf("storage: appending %v to string column", v.K))
		}
		c.strs = append(c.strs, v.S)
	}
}

// Set overwrites the value at row i (used by in-place dimension updates,
// Figure 8).
func (c *Column) Set(i int, v Value) {
	if v.IsNull() {
		c.nulls[i] = true
		return
	}
	c.nulls[i] = false
	switch physKind(c.Type) {
	case KindInt, KindDate:
		c.ints[i] = v.I
	case KindFloat:
		c.flts[i] = v.AsFloat()
	default:
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
	}
	return t
}

// Grow preallocates capacity for n additional rows, avoiding repeated
// reallocation during bulk loads.
func (t *Table) Grow(n int) {
	for i := range t.cols {
		c := &t.cols[i]
		c.nulls = append(make([]bool, 0, len(c.nulls)+n), c.nulls...)
		switch physKind(c.Type) {
		case KindInt, KindDate:
			c.ints = append(make([]int64, 0, len(c.ints)+n), c.ints...)
		case KindFloat:
			c.flts = append(make([]float64, 0, len(c.flts)+n), c.flts...)
		default:
			c.strs = append(make([]string, 0, len(c.strs)+n), c.strs...)
		}
	}
}

// ID returns the process-unique instance id of this table. Two tables
// with the same schema name (separate materializations of a CTE, a
// reload) have different ids.
func (t *Table) ID() uint64 { return t.id }

// Epoch returns the table's data epoch: a counter bumped by every
// mutating operation (Append, Update, SetValue, Delete). Derived-data
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

// Update overwrites row i with the given values (in-place dimension
// maintenance).
func (t *Table) Update(i int, row []Value) {
	if len(row) != len(t.cols) {
		panic("storage: row width mismatch in Update")
	}
	for c, v := range row {
		t.cols[c].Set(i, v)
	}
	t.epoch++
}

// SetValue overwrites a single cell.
func (t *Table) SetValue(row, col int, v Value) {
	t.cols[col].Set(row, v)
	t.epoch++
}

// Delete removes the given row ids (any order, duplicates allowed) and
// compacts the table. Fact-table deletes are logically clustered on a
// date range (§4.2), so a compaction pass over contiguous victims is
// cheap in practice. Returns the number of rows removed.
func (t *Table) Delete(rowIDs []int) int {
	if len(rowIDs) == 0 {
		return 0
	}
	n := t.NumRows()
	victim := make([]bool, n)
	removed := 0
	for _, id := range rowIDs {
		if id >= 0 && id < n && !victim[id] {
			victim[id] = true
			removed++
		}
	}
	if removed == 0 {
		return 0
	}
	t.epoch++
	for c := range t.cols {
		col := &t.cols[c]
		w := 0
		for r := 0; r < n; r++ {
			if victim[r] {
				continue
			}
			col.nulls[w] = col.nulls[r]
			switch physKind(col.Type) {
			case KindInt, KindDate:
				col.ints[w] = col.ints[r]
			case KindFloat:
				col.flts[w] = col.flts[r]
			default:
				col.strs[w] = col.strs[r]
			}
			w++
		}
		col.truncate(w)
	}
	return removed
}

// Raw exposes the column's physical vectors for vectorized execution:
// the physical kind, the payload slice valid for that kind, and the
// null bitmap. Callers must treat the slices as read-only.
func (c *Column) Raw() (k Kind, ints []int64, flts []float64, strs []string, nulls []bool) {
	return physKind(c.Type), c.ints, c.flts, c.strs, c.nulls
}

// ScanInt64 returns the raw int64 vector and null bitmap for a key
// column — the zero-copy path used by hash joins and bitmap index
// construction. It panics if the column is not integer-typed.
func (t *Table) ScanInt64(col int) (vals []int64, nulls []bool) {
	c := &t.cols[col]
	if k := physKind(c.Type); k != KindInt && k != KindDate {
		panic(fmt.Sprintf("storage: ScanInt64 on %v column", c.Type))
	}
	return c.ints, c.nulls
}

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
