package storage_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"tpcds/internal/datagen"
	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

// serialLoad reads one flat file with ReadFlat.
func serialLoad(t *testing.T, dir string, def *schema.Table) *storage.Table {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, def.Name+".dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tb := storage.NewTable(def)
	if _, err := tb.ReadFlat(f); err != nil {
		t.Fatal(err)
	}
	return tb
}

// dictDef is a table of an identifier and string columns.
func dictDef(name string, cols ...string) *schema.Table {
	def := &schema.Table{Name: name, Kind: schema.Dimension, Columns: []schema.Column{{Name: "k", Type: schema.Identifier}}}
	for _, c := range cols {
		def.Columns = append(def.Columns, schema.Column{Name: c, Type: schema.Varchar, Len: 16, Nullable: true})
	}
	return def
}

// fixedLines writes rows lines of one width: the key, zero-padded to
// make up for the string fields' widths, then the fields cells(r)
// gives ("" is NULL).
func fixedLines(rows int, cells func(r int) []string) []byte {
	var b bytes.Buffer
	for r := 0; r < rows; r++ {
		fields := cells(r)
		width := 12
		for _, f := range fields {
			width -= len(f)
		}
		fmt.Fprintf(&b, "%0*d|%s|\n", width+8, r, strings.Join(fields, "|"))
	}
	return b.Bytes()
}

// TestLoadDirEqualsReadFlat: on 1, 2 and 4 workers, with pieces shrunk
// until every table is cut, every table LoadDir builds is the one a
// serial ReadFlat of its file builds, bit for bit, and a corrupt line
// fails the load with the serial error. The cases: tables with NULLs,
// escapes and \e, one of them with a piece of nothing but empty and CR
// lines; generated tables; and string columns that give their
// dictionary up in the 2nd piece, or in a piece of their own but not in
// the serial load, or when the dictionary is full.
func TestLoadDirEqualsReadFlat(t *testing.T) {
	dir := t.TempDir()
	write := func(def *schema.Table, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, def.Name+".dat"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	type group struct {
		defs  []*schema.Table
		piece int64
	}
	var groups []group

	// Generated tables at SF 0.001, but for the three fixed-size ones
	// (customer_demographics, date_dim and time_dim hold 11 of the 12 MB
	// and would take minutes under -race in 256-byte pieces).
	gen := datagen.New(0.001, 3).GenerateAll()
	small := group{piece: 256}
	for _, def := range schema.Tables() {
		switch def.Name {
		case "customer_demographics", "date_dim", "time_dim":
			continue
		}
		var buf bytes.Buffer
		if err := gen.Table(def.Name).WriteFlat(&buf); err != nil {
			t.Fatal(err)
		}
		write(def, buf.Bytes())
		small.defs = append(small.defs, def)
	}
	// fillRows tables; t2 has a run of empty and CR lines several pieces
	// long in the middle.
	for i, n := range []int{1, 7, 300, 2000} {
		def := storage.NamedDef(fmt.Sprintf("fill%d", i))
		tb := storage.NewTable(def)
		storage.FillRows(tb, n)
		var buf bytes.Buffer
		if err := tb.WriteFlat(&buf); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		if i == 2 {
			mid := bytes.IndexByte(data[len(data)/2:], '\n') + len(data)/2 + 1
			gap := strings.Repeat("\n\r\n\r\n", 200)
			data = append(data[:mid:mid], append([]byte(gap), data[mid:]...)...)
		}
		write(def, data)
		small.defs = append(small.defs, def)
	}
	groups = append(groups, small)

	// Lines of 25 bytes, 300 to a piece. Column a has 200 values in
	// piece 1, then a new value every other row: no piece gives its
	// dictionary up, the serial load does at row 412 (256 values), in
	// piece 2. Column b has 200 values in rows 0..599, 100 more in rows
	// 600..699, then cycles over all 300: pieces 3 to 5 each meet 256
	// values of their own in fewer than 300 rows and go plain, the serial
	// load keeps its dictionary. Column n is NULL every 7th row, holds 5 values met in
	// another order in every piece, and stays a dictionary.
	const width, piece = 25, 300 * 25
	dicts := dictDef("dicts", "a", "b", "n")
	dictLines := fixedLines(1500, func(r int) []string {
		a := r
		if r >= 200 {
			a = 200 + (r-200)/2
			if r < 300 {
				a = r % 200
			}
		}
		b := r % 200
		if r >= 600 {
			b = 200 + (r - 600)
		}
		if r >= 700 {
			b = (r - 700) % 300
		}
		n := ""
		if r%7 != 0 {
			n = fmt.Sprintf("n%d", (r/300+r)%5)
		}
		return []string{fmt.Sprintf("a%03d", a), fmt.Sprintf("b%03d", b), n}
	})
	if len(dictLines) != 1500*width {
		t.Fatalf("dicts lines are not %d bytes long", width)
	}
	write(dicts, dictLines)
	// Read alone, no piece of a gives its dictionary up, and pieces 3 to
	// 5 of b do.
	for k := 0; k < 5; k++ {
		tb := storage.NewTable(dicts)
		if _, err := tb.ReadFlat(bytes.NewReader(dictLines[k*piece : (k+1)*piece])); err != nil {
			t.Fatal(err)
		}
		if a, b := storage.DictLayout(tb.Col(1)), storage.DictLayout(tb.Col(2)); !a || b != (k < 2) {
			t.Fatalf("piece %d read alone: a, b dictionary-coded %v, %v; want true, %v", k+1, a, b, k < 2)
		}
	}
	// Column c takes a new value every other row: encode's ratio never
	// gives the dictionary up, and the 65,537th value finds it full at
	// row 131,072, in the last of 6 pieces.
	full := dictDef("full", "c")
	write(full, fixedLines(150000, func(r int) []string { return []string{fmt.Sprintf("c%05x", r/2)} }))
	// Lines of 24 bytes, 601 to a piece, piece 2 opening on a NULL row.
	// Column z takes a new value every other row, so it enters value 301
	// at row 602 with 2n = 602, not over the rows before it: kept, where
	// judging the value at the NULL row before it would give the
	// dictionary up. Column y gives its dictionary up in piece 2, after
	// that NULL row, whose payload is then the first value, as in the
	// serial load.
	lead := dictDef("lead", "y", "z")
	leadLines := fixedLines(1202, func(r int) []string {
		if r == 601 {
			return []string{"", ""}
		}
		y := r % 200
		if r > 601 {
			y = 1000 + r
		}
		return []string{fmt.Sprintf("y%04d", y), fmt.Sprintf("z%03d", r/2)}
	})
	if len(leadLines) != 1202*24 {
		t.Fatal("lead lines are not 24 bytes long")
	}
	write(lead, leadLines)
	groups = append(groups, group{[]*schema.Table{dicts}, piece}, group{[]*schema.Table{full}, 25000 * 23},
		group{[]*schema.Table{lead}, 601 * 24})

	checkLayouts := func(t *testing.T, procs int) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		for _, g := range groups {
			db, err := storage.LoadDirPieces(dir, g.defs, g.piece)
			if err != nil {
				t.Fatal(err)
			}
			for _, def := range g.defs {
				storage.SameLayout(t, fmt.Sprintf("%d workers, %s", procs, def.Name), db.Table(def.Name), serialLoad(t, dir, def))
			}
		}
	}
	for _, procs := range []int{1, 2, 4} {
		checkLayouts(t, procs)
	}
	layouts := func(tb *storage.Table) (dict []bool) {
		for c := 1; c < tb.NumCols(); c++ {
			dict = append(dict, storage.DictLayout(tb.Col(c)))
		}
		return dict
	}
	if got := layouts(serialLoad(t, dir, dicts)); !slices.Equal(got, []bool{false, true, true}) {
		t.Errorf("dicts columns a, b, n dictionary-coded %v, want [false true true]", got)
	}
	if got := layouts(serialLoad(t, dir, full)); !slices.Equal(got, []bool{false}) {
		t.Errorf("full column c dictionary-coded %v, want [false]", got)
	}
	if got := layouts(serialLoad(t, dir, lead)); !slices.Equal(got, []bool{false, true}) {
		t.Errorf("lead columns y, z dictionary-coded %v, want [false true]", got)
	}

	// A corrupt line in the 3rd piece: the serial error, with the
	// file's line number, on every worker count.
	bad := slices.Clone(dictLines)
	copy(bad[2*piece+5*width:], "xx")
	write(dicts, bad)
	f, err := os.Open(filepath.Join(dir, "dicts.dat"))
	if err != nil {
		t.Fatal(err)
	}
	_, serr := storage.NewTable(dicts).ReadFlat(f)
	f.Close()
	want := "storage: load " + filepath.Join(dir, "dicts.dat") + ": " + fmt.Sprint(serr)
	if serr == nil || !strings.Contains(serr.Error(), "line 606,") {
		t.Fatalf("serial load of the corrupt file: %v, want an error at line 606", serr)
	}
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		db, err := storage.LoadDirPieces(dir, []*schema.Table{full, dicts}, piece)
		runtime.GOMAXPROCS(prev)
		if db != nil || err == nil || err.Error() != want {
			t.Fatalf("%d workers: LoadDir = %v, %v; want %s", procs, db, err, want)
		}
	}
}
