package storage

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"tpcds/internal/schema"
)

const (
	// dumpRows is the number of rows DumpDir renders as one piece of a
	// file: small enough that the largest table splits over every
	// worker, large enough that handing out pieces costs nothing next
	// to rendering them.
	dumpRows = 1 << 12
	// dumpBuf is the capacity of a DumpDir worker's buffer: a piece of
	// rows up to 256 bytes long (the generated tables with more than a
	// piece of rows stay under 200). A wider piece grows it by append.
	dumpBuf = dumpRows << 8
)

// LoadDir loads a database from a directory of flat files, one
// "<table>.dat" per schema definition — the load-test input path of the
// benchmark (§5.2: the timed database load starts from the generated
// flat files). Missing files are an error; the loader validates row
// widths and field types as it goes.
//
// Tables load whole, one per worker at a time over GOMAXPROCS workers,
// largest file first. Each table is read by one ReadFlat, so its
// dictionaries and layouts are those of a serial load. The tables are
// registered in definition order, and on failure the error is that of
// the first failing table in definition order — the one a serial load
// would have met first.
func LoadDir(dir string, defs []*schema.Table) (*DB, error) {
	size := make([]int64, len(defs))
	order := make([]int, len(defs))
	for i, def := range defs {
		order[i] = i
		if fi, err := os.Stat(filepath.Join(dir, def.Name+".dat")); err == nil {
			size[i] = fi.Size()
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return size[order[a]] > size[order[b]] })
	tables := make([]*Table, len(defs))
	errs := make([]error, len(defs))
	forEachParallel(runtime.GOMAXPROCS(0), len(order), func(_, k int) {
		i := order[k]
		tables[i], errs[i] = loadFile(dir, defs[i])
	})
	db := NewDB()
	for i, t := range tables {
		if errs[i] != nil {
			return nil, errs[i]
		}
		db.Put(t)
	}
	return db, nil
}

// loadFile reads the flat file of one table.
func loadFile(dir string, def *schema.Table) (*Table, error) {
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
	return t, nil
}

// DumpDir writes every table of the database as "<table>.dat" flat
// files into dir (created if missing).
//
// Every table is cut into pieces of dumpRows rows (an empty table is
// one empty piece), and GOMAXPROCS workers render the pieces into one
// reused buffer each. The pieces are written in turn, in table-name
// order and in row order within a table, so each file is the bytes one
// WriteFlat gives, files are created in the serial order, and a failure
// stops the dump at the file a serial dump would have stopped at, with
// the same error.
func (db *DB) DumpDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type piece struct {
		name   string
		t      *Table
		kinds  []Kind
		lo, hi int
	}
	names, count := db.Names(), 0
	for _, name := range names {
		count += max((db.Table(name).NumRows()+dumpRows-1)/dumpRows, 1)
	}
	pieces := make([]piece, 0, count)
	for _, name := range names {
		t := db.Table(name)
		kinds, n := t.physKinds(), t.NumRows()
		for lo := 0; lo == 0 || lo < n; lo += dumpRows {
			pieces = append(pieces, piece{name, t, kinds, lo, min(lo+dumpRows, n)})
		}
	}
	var (
		mu      sync.Mutex
		turn    = sync.NewCond(&mu)
		written int      // pieces whose turn has passed
		f       *os.File // the file being written, used by the piece whose turn it is
		failed  error
	)
	write := func(p piece, buf []byte) error {
		if p.lo == 0 {
			var err error
			if f, err = os.Create(filepath.Join(dir, p.name+".dat")); err != nil {
				return fmt.Errorf("storage: dump %s: %w", p.name, err)
			}
		}
		_, werr := f.Write(buf)
		if werr == nil && p.hi < p.t.NumRows() {
			return nil
		}
		cerr := f.Close()
		if werr != nil {
			return fmt.Errorf("storage: dump %s: %w", p.name, werr)
		}
		if cerr != nil {
			return fmt.Errorf("storage: dump %s: %w", p.name, cerr)
		}
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	bufs := make([][]byte, workers)
	forEachParallel(workers, len(pieces), func(w, k int) {
		p := pieces[k]
		if bufs[w] == nil {
			bufs[w] = make([]byte, 0, dumpBuf)
		}
		bufs[w], _ = p.t.appendFlatRows(bufs[w][:0], p.kinds, p.lo, p.hi, math.MaxInt)
		mu.Lock()
		defer mu.Unlock()
		for written != k {
			turn.Wait()
		}
		if failed == nil {
			failed = write(p, bufs[w])
		}
		written++
		turn.Broadcast()
	})
	return failed
}

// forEachParallel calls do(w, k) once for every k in [0, n), on
// min(workers, n) goroutines that claim k in increasing order; w names
// the calling worker (0 ≤ w < workers), for per-worker state. It
// returns once every call has returned.
func forEachParallel(workers, n int, do func(w, k int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < n; k = int(next.Add(1)) - 1 {
				do(w, k)
			}
		}()
	}
	wg.Wait()
}
