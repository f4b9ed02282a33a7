package storage_test

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"tpcds/internal/datagen"
	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

// loadFixture is one generated database at SF 0.001 (the fixed-size
// dimensions make it ≈ 90 MB of flat files at any SF) and its flat
// files, shared by the tests and benchmarks of the load path.
var loadFixture struct {
	once sync.Once
	db   *storage.DB
	flat map[string][]byte
	raw  int64
}

func fixture(tb testing.TB) (*storage.DB, map[string][]byte, int64) {
	tb.Helper()
	f := &loadFixture
	f.once.Do(func() {
		f.db = datagen.New(0.001, 1).GenerateAll()
		f.flat = map[string][]byte{}
		for _, name := range f.db.Names() {
			var buf bytes.Buffer
			if err := f.db.Table(name).WriteFlat(&buf); err != nil {
				panic(err)
			}
			f.flat[name] = buf.Bytes()
			f.raw += int64(buf.Len())
		}
	})
	return f.db, f.flat, f.raw
}

// TestWriteFlatEqualsReference: for every one of the 24 generated
// tables the writer's bytes are those of the Get + String() writer it
// replaced.
func TestWriteFlatEqualsReference(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and renders ≈ 90 MB twice")
	}
	db, flat, _ := fixture(t)
	if len(flat) != len(schema.Tables()) {
		t.Fatalf("%d tables generated, schema has %d", len(flat), len(schema.Tables()))
	}
	for _, name := range db.Names() {
		var want bytes.Buffer
		if err := storage.RefWriteFlat(db.Table(name), &want); err != nil {
			t.Fatal(err)
		}
		if got := flat[name]; !bytes.Equal(got, want.Bytes()) {
			i := 0
			for i < len(got) && i < want.Len() && got[i] == want.Bytes()[i] {
				i++
			}
			t.Errorf("%s: %d bytes written, reference %d, first difference at offset %d", name, len(got), want.Len(), i)
		}
	}
}

// TestReadFlatEqualsReference: loading the generated flat files gives
// the tables the Scanner / split / ParseField reader gives, which are
// the generated tables.
func TestReadFlatEqualsReference(t *testing.T) {
	if testing.Short() {
		t.Skip("loads ≈ 90 MB of flat files twice")
	}
	db, flat, _ := fixture(t)
	for _, def := range schema.Tables() {
		got, want := storage.NewTable(def), storage.NewTable(def)
		n, err := got.ReadFlat(bytes.NewReader(flat[def.Name]))
		wantN, wantErr := storage.RefReadFlat(want, bytes.NewReader(flat[def.Name]))
		if err != nil || wantErr != nil || n != wantN || n != db.Table(def.Name).NumRows() {
			t.Fatalf("%s: ReadFlat = %d, %v; reference = %d, %v; generated %d rows",
				def.Name, n, err, wantN, wantErr, db.Table(def.Name).NumRows())
		}
		for c := 0; c < got.NumCols(); c++ {
			for r := 0; r < n; r++ {
				if a, b := got.Get(r, c), want.Get(r, c); a != b {
					t.Fatalf("%s row %d col %s: %#v, reference %#v", def.Name, r, def.Columns[c].Name, a, b)
				}
			}
		}
	}
}

// TestLoadPathAllocationBudgets holds the load path to budgets that do
// not depend on the host: reading, by ReadFlat or by LoadDir, allocates
// at most 2.5 heap bytes per byte of flat file (column vectors
// included; one string header per cell took 3.1, the reader before
// that 28), LoadDir at most a tenth more than ReadFlat, and writing a table allocates the same few objects
// whether it has three rows or 1.9 million.
func TestLoadPathAllocationBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("generates ≈ 90 MB of flat files")
	}
	db, flat, raw := fixture(t)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, def := range schema.Tables() {
		if _, err := storage.NewTable(def).ReadFlat(bytes.NewReader(flat[def.Name])); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	readPerByte := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(raw)
	if readPerByte > 2.5 {
		t.Errorf("ReadFlat allocated %.2f heap bytes per flat-file byte, budget 2.5", readPerByte)
	} else {
		t.Logf("ReadFlat: %.2f heap bytes per flat-file byte over %d MB", readPerByte, raw>>20)
	}
	// LoadDir decodes pieces into windows of the vectors it reserves
	// once, so it allocates about what ReadFlat does. A merge that
	// copied the vectors would allocate 1.9 times as much (2.44 bytes a
	// byte, under 2.5): the second bound is the one it fails.
	dir := t.TempDir()
	for name, data := range flat {
		if err := os.WriteFile(filepath.Join(dir, name+".dat"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m0)
	if _, err := storage.LoadDir(dir, schema.Tables()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if perByte := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(raw); perByte > 2.5 || perByte > 1.1*readPerByte {
		t.Errorf("LoadDir allocated %.2f heap bytes per flat-file byte, budget 2.5 and 1.1 × ReadFlat's %.2f", perByte, readPerByte)
	} else {
		t.Logf("LoadDir: %.2f heap bytes per flat-file byte over %d MB", perByte, raw>>20)
	}

	writeAllocs := func(name string) float64 {
		return testing.AllocsPerRun(1, func() {
			if err := db.Table(name).WriteFlat(discard{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := writeAllocs("reason"), writeAllocs("customer_demographics")
	if small > 3 || large != small {
		t.Errorf("WriteFlat allocations: %v for reason (%d rows), %v for customer_demographics (%d rows), want the same ≤3",
			small, db.Table("reason").NumRows(), large, db.Table("customer_demographics").NumRows())
	}
}

func BenchmarkReadFlat(b *testing.B) {
	_, flat, raw := fixture(b)
	b.SetBytes(raw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, def := range schema.Tables() {
			t := storage.NewTable(def)
			if _, err := t.ReadFlat(bytes.NewReader(flat[def.Name])); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkWriteFlat(b *testing.B) {
	db, _, raw := fixture(b)
	b.SetBytes(raw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range db.Names() {
			if err := db.Table(name).WriteFlat(discard{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func BenchmarkLoadDir(b *testing.B) {
	db, _, raw := fixture(b)
	dir := b.TempDir()
	if err := db.DumpDir(dir); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(raw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := storage.LoadDir(dir, schema.Tables()); err != nil {
			b.Fatal(err)
		}
	}
}
