package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"tpcds/internal/schema"
)

// namedDef is testDef under another table name.
func namedDef(name string) *schema.Table {
	def := testDef()
	def.Name = name
	return def
}

// fillRows appends n rows of every physical kind to t, NULLs and
// strings that need escaping among them.
func fillRows(t *Table, n int) {
	words := []string{"a", "b|c", `d\e`, "", "line\nbreak", "plain text"}
	for i := 0; i < n; i++ {
		row := []Value{Int(int64(i)), Int(int64(i * 7 % 13)), Float(float64(i%1000) / 4), Str(words[i%len(words)]), DateV(int64(i % 4000))}
		if i%11 == 3 {
			row[1], row[2], row[3], row[4] = Null, Null, Null, Null
		}
		t.Append(row)
	}
}

// withProcs runs the test body on n Ps.
func withProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestDumpDirEqualsWriteFlat: on four workers, every file DumpDir
// writes is the bytes of one WriteFlat of its table, for tables on
// both sides of every piece boundary, and it writes no other file.
func TestDumpDirEqualsWriteFlat(t *testing.T) {
	withProcs(t, 4)
	db := NewDB()
	sizes := []int{0, 1, dumpRows - 1, dumpRows, dumpRows + 1, 3*dumpRows + 7}
	for i, n := range sizes {
		tb := NewTable(namedDef(fmt.Sprintf("t%d", i)))
		fillRows(tb, n)
		db.Put(tb)
	}
	dir := filepath.Join(t.TempDir(), "new") // DumpDir creates it
	if err := db.DumpDir(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != len(sizes) {
		t.Fatalf("%d files written (err %v), want %d", len(entries), err, len(sizes))
	}
	for i, n := range sizes {
		name := fmt.Sprintf("t%d", i)
		var want bytes.Buffer
		if err := db.Table(name).WriteFlat(&want); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name+".dat"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s (%d rows): %d bytes dumped, WriteFlat gives %d", name, n, len(got), want.Len())
		}
	}
}

// TestDumpDirStopsWhereSerialDumpStops: a file that cannot be created
// fails the dump with the error naming its table; the files before it
// in name order are complete and none after it is created.
func TestDumpDirStopsWhereSerialDumpStops(t *testing.T) {
	withProcs(t, 4)
	db := NewDB()
	for _, name := range []string{"a", "b", "c", "d"} {
		tb := NewTable(namedDef(name))
		fillRows(tb, 2*dumpRows+5)
		db.Put(tb)
	}
	for run := 0; run < 5; run++ {
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, "c.dat"), 0o755); err != nil { // in the way of c's file
			t.Fatal(err)
		}
		err := db.DumpDir(dir)
		if err == nil || !strings.HasPrefix(err.Error(), "storage: dump c: ") {
			t.Fatalf("DumpDir error %v, want one for table c", err)
		}
		for _, name := range []string{"a", "b"} {
			var want bytes.Buffer
			if err := db.Table(name).WriteFlat(&want); err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(filepath.Join(dir, name+".dat")); err != nil || !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s.dat incomplete before the failure (err %v)", name, err)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "d.dat")); !os.IsNotExist(err) {
			t.Errorf("d.dat created after the failure at c (stat: %v)", err)
		}
	}
}

// TestLoadDirFirstErrorInDefinitionOrder: with two corrupt files — the
// later one in definition order the largest, so it is loaded first —
// every run reports the earlier one, as a serial load would, and no
// goroutine outlives the call.
func TestLoadDirFirstErrorInDefinitionOrder(t *testing.T) {
	withProcs(t, 4)
	dir := t.TempDir()
	var defs []*schema.Table
	for i, n := range []int{50, 10, 300, 40, 5000, 70} {
		def := namedDef(fmt.Sprintf("t%d", i))
		defs = append(defs, def)
		tb := NewTable(def)
		fillRows(tb, n)
		var buf bytes.Buffer
		if err := tb.WriteFlat(&buf); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		if i == 1 || i == 4 {
			data = append(data, "1|2|3.5|x|not a date|\n"...)
		}
		if err := os.WriteFile(filepath.Join(dir, def.Name+".dat"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := runtime.NumGoroutine()
	for run := 0; run < 20; run++ {
		db, err := LoadDir(dir, defs)
		want := filepath.Join(dir, "t1.dat") + ": storage: read t1: line 11, column d"
		if db != nil || err == nil || !strings.HasPrefix(err.Error(), "storage: load "+want) {
			t.Fatalf("run %d: LoadDir = %v, %v; want the error of %s", run, db, err, want)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after LoadDir returned, %d before", n, before)
	}

	// With the corrupt files mended the tables arrive whole, registered
	// under their definitions.
	for _, i := range []int{1, 4} {
		tb := NewTable(defs[i])
		fillRows(tb, []int{0, 10, 0, 0, 5000}[i])
		var buf bytes.Buffer
		if err := tb.WriteFlat(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, defs[i].Name+".dat"), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err := LoadDir(dir, defs)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{50, 10, 300, 40, 5000, 70} {
		if tb := db.Table(defs[i].Name); tb == nil || tb.Def != defs[i] || tb.NumRows() != n {
			t.Errorf("table %s not loaded whole", defs[i].Name)
		}
	}
}

// TestDumpDirAllocationBudget: dumping allocates a fixed number of
// objects per file and per worker — the pieces, the workers and their
// reused buffers — however many rows the tables have.
func TestDumpDirAllocationBudget(t *testing.T) {
	withProcs(t, 4)
	dumpAllocs := func(rows int) float64 {
		db := NewDB()
		tb := NewTable(namedDef("t"))
		fillRows(tb, rows)
		db.Put(tb)
		dir := t.TempDir()
		return testing.AllocsPerRun(3, func() {
			if err := db.DumpDir(dir); err != nil {
				t.Fatal(err)
			}
		})
	}
	const budget = 40
	small, large := dumpAllocs(3*dumpRows+7), dumpAllocs(60*dumpRows)
	if small > budget || large != small {
		t.Errorf("DumpDir allocations: %v for %d rows, %v for %d rows, want the same ≤ %d",
			small, 3*dumpRows+7, large, 60*dumpRows, budget)
	}
	t.Logf("DumpDir allocations: %v for %d rows, %v for %d rows", small, 3*dumpRows+7, large, 60*dumpRows)
}
