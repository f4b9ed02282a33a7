package storage

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"tpcds/internal/schema"
)

// typedDef is a table with a column of every logical type, and string
// columns meant to end in each layout a column can have.
func typedDef() *schema.Table {
	return &schema.Table{Name: "typed", Kind: schema.Dimension, Columns: []schema.Column{
		{Name: "id", Type: schema.Identifier},                 // never NULL: no null vector
		{Name: "qty", Type: schema.Integer, Nullable: true},   // NULL first
		{Name: "amt", Type: schema.Decimal, Nullable: true},   // one NULL mid-column
		{Name: "day", Type: schema.Date, Nullable: true},      // NULLs scattered
		{Name: "few", Type: schema.Char, Nullable: true},      // keeps its dictionary
		{Name: "ratio", Type: schema.Varchar, Nullable: true}, // a new value a row: plain at the dictTrial ratio
		{Name: "wide", Type: schema.Varchar, Nullable: true},  // each value twice: plain at dictMax
	}}
}

// TestTypedAppendsEqualAppend: random rows written cell by cell through
// a Writer's typed appends leave the table Table.Append leaves — the
// same vectors, null vectors, dictionaries and epoch (sameLayout), and
// the same Get values — across a NULL first, a NULL mid-column, a
// dictionary kept, one given up at the dictTrial ratio and one given up
// at dictMax.
func TestTypedAppendsEqualAppend(t *testing.T) {
	rows := 2*dictMax + 64
	if testing.Short() {
		rows = 4 * dictTrial // the dictMax demotion needs 2·dictMax rows
	}
	rng := rand.New(rand.NewSource(1))
	typed, boxed := NewTable(typedDef()), NewTable(typedDef())
	typed.Grow(rows / 2) // the vectors outgrow it part-way, as generators' may
	boxed.Grow(rows / 2)
	w := typed.Writer()
	row := make([]Value, typed.NumCols())
	for r := 0; r < rows; r++ {
		row[0] = Int(rng.Int63())
		row[1] = Int(rng.Int63n(100) - 50)
		if r == 0 || rng.Intn(10) == 0 {
			row[1] = Null
		}
		row[2] = Float(rng.NormFloat64() * 1e3)
		if r == rows/2 {
			row[2] = Null
		}
		row[3] = DateV(rng.Int63n(DateDimRows))
		if rng.Intn(5) == 0 {
			row[3] = Null
		}
		row[4] = Str(smallVocab[rng.Intn(len(smallVocab))])
		if r > rows/3 && rng.Intn(7) == 0 {
			row[4] = Null
		}
		row[5] = Str("r" + strconv.Itoa(r))
		row[6] = Str("w" + strconv.Itoa(r/2))
		for _, v := range row {
			switch v.K {
			case KindNull:
				w.Null()
			case KindInt, KindDate:
				w.Int(v.I)
			case KindFloat:
				w.Float(v.F)
			default:
				w.Str(v.S)
			}
		}
		w.EndRow()
		boxed.Append(row)
	}
	w.Close()
	sameLayout(t, "typed appends", typed, boxed)
	for c := 0; c < typed.NumCols(); c++ {
		for r := 0; r < rows; r++ {
			if a, b := typed.Get(r, c), boxed.Get(r, c); !sameValue(a, b) {
				t.Fatalf("row %d col %d: typed %#v, Append %#v", r, c, a, b)
			}
		}
	}
	// The columns reached the states the test is about.
	cols := typed.cols
	switch {
	case cols[0].nulls != nil:
		t.Error("id: a null vector on a column without NULLs")
	case cols[1].nulls == nil || !cols[1].nulls[0] || cols[2].nulls == nil || !cols[2].nulls[rows/2]:
		t.Error("qty and amt: the first NULL did not make the null vector")
	case cols[4].dict == nil:
		t.Error("few: lost its dictionary")
	case cols[5].dict != nil:
		t.Error("ratio: kept its dictionary past the dictTrial ratio")
	case !testing.Short() && cols[6].dict != nil:
		t.Error("wide: kept its dictionary past dictMax values")
	}
}

// TestTypedAppendChecks: a typed append to a column of another kind
// panics (a NULL goes into any column), a row missing a cell panics at
// EndRow, and Close panics on a ragged table, naming it.
func TestTypedAppendChecks(t *testing.T) {
	panics := func(fn func()) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		fn()
		return ""
	}
	appends := map[string]func(*Column){
		"int":    func(c *Column) { c.AppendInt(1) },
		"float":  func(c *Column) { c.AppendFloat(1) },
		"string": func(c *Column) { c.AppendString("x") },
		"null":   func(c *Column) { c.AppendNull() },
	}
	accepts := map[schema.Type]string{
		schema.Identifier: "int", schema.Integer: "int", schema.Date: "int",
		schema.Decimal: "float", schema.Char: "string", schema.Varchar: "string",
	}
	def := typedDef()
	for typ, ok := range accepts {
		for name, app := range appends {
			msg := panics(func() {
				tb := NewTable(&schema.Table{Name: "one", Columns: []schema.Column{{Name: "c", Type: typ, Nullable: true}}})
				app(tb.Col(0))
			})
			if want := name == ok || name == "null"; want != (msg == "") {
				t.Errorf("%s append to a %v column: panic %q", name, typ, msg)
			}
		}
	}

	tb := NewTable(def)
	w := tb.Writer()
	w.Int(1)
	if msg := panics(w.EndRow); !strings.Contains(msg, "typed") {
		t.Errorf("EndRow after one cell of %d: panic %q, want one naming the table", tb.NumCols(), msg)
	}
	tb = NewTable(def)
	w = tb.Writer()
	tb.Col(0).AppendInt(1)
	if msg := panics(w.Close); !strings.Contains(msg, "typed") {
		t.Errorf("Close of a ragged table: panic %q, want one naming the table", msg)
	}
}
