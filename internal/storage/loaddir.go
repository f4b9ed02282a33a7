package storage

import (
	"fmt"
	"os"
	"path/filepath"

	"tpcds/internal/schema"
)

// LoadDir loads a database from a directory of flat files, one
// "<table>.dat" per schema definition — the load-test input path of the
// benchmark (§5.2: the timed database load starts from the generated
// flat files). Missing files are an error; the loader validates row
// widths and field types as it goes.
func LoadDir(dir string, defs []*schema.Table) (*DB, error) {
	db := NewDB()
	for _, def := range defs {
		path := filepath.Join(dir, def.Name+".dat")
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("storage: load %s: %w", def.Name, err)
		}
		t := NewTable(def)
		_, rerr := t.ReadFlat(f)
		cerr := f.Close()
		if rerr != nil {
			return nil, fmt.Errorf("storage: load %s: %w", path, rerr)
		}
		if cerr != nil {
			return nil, fmt.Errorf("storage: load %s: %w", path, cerr)
		}
		db.Put(t)
	}
	return db, nil
}

// DumpDir writes every table of the database as "<table>.dat" flat
// files into dir (created if missing).
func (db *DB) DumpDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range db.Names() {
		t := db.Table(name)
		path := filepath.Join(dir, name+".dat")
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("storage: dump %s: %w", name, err)
		}
		werr := t.WriteFlat(f)
		cerr := f.Close()
		if werr != nil {
			return fmt.Errorf("storage: dump %s: %w", name, werr)
		}
		if cerr != nil {
			return fmt.Errorf("storage: dump %s: %w", name, cerr)
		}
	}
	return nil
}
