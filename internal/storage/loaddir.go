package storage

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
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
// The work is handed out as pieces over GOMAXPROCS workers, largest
// first: a file of more than loadPiece bytes is cut at line breaks
// into pieces of about that size, a smaller one is one piece. A
// counting pass gives every piece its line count, the table's vectors
// are reserved once, and each piece decodes into its own window of
// them. The worker that finishes a table's last piece merges its
// pieces into the table one ReadFlat of the file would have built:
// the same rows, dictionaries in the same order, the same layouts and
// null vectors. The tables are registered in definition order. On
// failure the error is that of the first failing table in definition
// order and, within it, of the first failing line — the one a serial
// load would have met first.
func LoadDir(dir string, defs []*schema.Table) (*DB, error) {
	return loadDir(dir, defs, loadPiece)
}

// loadDir is LoadDir with the piece size as a parameter (tests shrink
// it to cut every table).
func loadDir(dir string, defs []*schema.Table, pieceSize int64) (*DB, error) {
	srcs := make([]flatSource, len(defs))
	errs := make([]error, len(defs))
	files := make([]*os.File, len(defs))
	for i, def := range defs {
		srcs[i].def = def
		f, err := os.Open(filepath.Join(dir, def.Name+".dat"))
		if err != nil {
			errs[i] = fmt.Errorf("storage: load %s: %w", def.Name, err)
			continue
		}
		files[i] = f
		if fi, err := f.Stat(); err != nil {
			errs[i] = fmt.Errorf("storage: load %s: %w", f.Name(), err)
		} else {
			srcs[i].r, srcs[i].size = f, fi.Size()
		}
	}
	tables, rerrs := loadFlat(srcs, pieceSize)
	for i, f := range files {
		// A read error is the one to report, else the close error.
		if f != nil {
			if err := cmp.Or(rerrs[i], f.Close()); err != nil && errs[i] == nil {
				errs[i] = fmt.Errorf("storage: load %s: %w", f.Name(), err)
			}
		}
	}
	db := NewDB()
	for i, t := range tables {
		if errs[i] != nil {
			return nil, errs[i]
		}
		db.Put(t)
	}
	return db, nil
}

// loadPiece is the size in bytes above which LoadDir cuts a flat file
// into pieces, and the least size of every piece but a file's last:
// large enough that a piece costs a few reads and one small
// dictionary to merge, small enough that the largest generated file
// (customer_demographics, 1.9 M rows at every scale factor) spreads
// over every worker.
const loadPiece = 4 << 20

// flatSource is the flat file of one table, read through ReadAt.
type flatSource struct {
	def  *schema.Table
	r    io.ReaderAt // nil: the table is not loaded
	size int64
}

// flatPiece is the byte range [lo, hi) of a table's flat file, cut
// where a line starts.
type flatPiece struct {
	tl     *tableLoad
	lo, hi int64
	line   int    // lines of the file before the piece: the start of its window
	lines  int    // lines in the piece: the size of its window
	t      *Table // the piece's rows, in a window of tl.t's vectors
	err    error
}

// tableLoad is the load of one table by pieces.
type tableLoad struct {
	src      flatSource
	t        *Table
	pieces   []*flatPiece // in file order
	counting atomic.Int32 // pieces not yet counted
	decoding atomic.Int32 // pieces not yet decoded
	err      error
}

// loadFlat loads every source with a reader into a table of its
// definition, through pieces of pieceSize bytes on GOMAXPROCS workers.
// The error of table i, if any, is errs[i]: that of its first failing
// piece in file order, in ReadFlat's words.
func loadFlat(srcs []flatSource, pieceSize int64) (tables []*Table, errs []error) {
	loads := make([]*tableLoad, len(srcs))
	var pieces []*flatPiece
	var probe [512]byte
	for i, src := range srcs {
		if src.r == nil {
			continue
		}
		tl := &tableLoad{src: src}
		loads[i] = tl
		if len(src.def.Columns) == 0 {
			tl.err = fmt.Errorf("storage: read %s: table has no columns", src.def.Name)
			continue
		}
		for lo := int64(0); ; {
			hi, err := src.size, error(nil)
			if src.size-lo > pieceSize {
				hi, err = lineStart(src.r, lo+pieceSize-1, src.size, probe[:])
			}
			if err != nil {
				hi, err = src.size, fmt.Errorf("storage: read %s: %w", src.def.Name, err)
			}
			tl.pieces = append(tl.pieces, &flatPiece{tl: tl, lo: lo, hi: hi, err: err})
			if lo = hi; lo >= src.size { // an empty file is one empty piece
				break
			}
		}
		tl.counting.Store(int32(len(tl.pieces)))
		tl.decoding.Store(int32(len(tl.pieces)))
		pieces = append(pieces, tl.pieces...)
	}
	sort.SliceStable(pieces, func(a, b int) bool { return pieces[a].hi-pieces[a].lo > pieces[b].hi-pieces[b].lo })

	workers := runtime.GOMAXPROCS(0)
	bufs := make([][]byte, workers) // a block buffer per worker, made on its first piece
	buf := func(w int) []byte {
		if bufs[w] == nil {
			bufs[w] = make([]byte, flatBlockSize)
		}
		return bufs[w]
	}
	forEachParallel(workers, len(pieces), func(w, k int) {
		p := pieces[k]
		if p.err == nil {
			if p.lines, p.err = countPiece(p.tl.src.r, p.lo, p.hi, buf(w)); p.err != nil {
				p.err = fmt.Errorf("storage: read %s: %w", p.tl.src.def.Name, p.err)
			}
		}
		if p.tl.counting.Add(-1) == 0 {
			p.tl.reserve()
		}
	})
	forEachParallel(workers, len(pieces), func(w, k int) {
		p := pieces[k]
		if p.err == nil {
			p.t = p.tl.t.window(p.line, p.lines)
			sr := io.NewSectionReader(p.tl.src.r, p.lo, p.hi-p.lo)
			_, p.err = p.t.decodeFlat(sr, buf(w), p.line, flatMaxLine)
		}
		if p.tl.decoding.Add(-1) == 0 {
			p.tl.finish()
		}
	})

	tables, errs = make([]*Table, len(srcs)), make([]error, len(srcs))
	for i, tl := range loads {
		if tl != nil {
			tables[i], errs[i] = tl.t, tl.err
		}
	}
	return tables, errs
}

// lineStart returns the offset just past the first line break at or
// after offset from in r, or size when none follows.
func lineStart(r io.ReaderAt, from, size int64, buf []byte) (int64, error) {
	for from < size {
		n, err := r.ReadAt(buf[:min(int64(len(buf)), size-from)], from)
		if i := bytes.IndexByte(buf[:n], '\n'); i >= 0 {
			return from + int64(i) + 1, nil
		}
		if err != nil && err != io.EOF {
			return 0, err
		}
		if n == 0 {
			break
		}
		from += int64(n)
	}
	return size, nil
}

// countPiece returns the number of lines in bytes [lo, hi) of r: its
// line breaks, plus one for a last line without a break.
func countPiece(r io.ReaderAt, lo, hi int64, buf []byte) (lines int, err error) {
	last := byte('\n')
	for lo < hi {
		n, err := r.ReadAt(buf[:min(int64(len(buf)), hi-lo)], lo)
		if n > 0 {
			lines += bytes.Count(buf[:n], []byte{'\n'})
			last = buf[n-1]
		}
		if err != nil && (err != io.EOF || n == 0) {
			return 0, err
		}
		lo += int64(n)
	}
	if last != '\n' {
		lines++
	}
	return lines, nil
}

// reserve, run once every piece is counted, numbers the pieces' lines
// and reserves the table's vectors for all of them.
func (tl *tableLoad) reserve() {
	line := 0
	for _, p := range tl.pieces {
		p.line = line
		line += p.lines
	}
	tl.t = NewTable(tl.src.def)
	tl.t.Grow(line)
}

// finish, run once every piece is decoded, sets the table's error from
// its first failing piece, or merges the pieces into the table.
func (tl *tableLoad) finish() {
	for _, p := range tl.pieces {
		if p.err != nil {
			tl.t, tl.err = nil, p.err
			return
		}
	}
	parts := make([]*Table, len(tl.pieces))
	for i, p := range tl.pieces {
		parts[i] = p.t
	}
	tl.t.merge(parts)
}

// window returns a table of t's definition whose vectors are windows
// of n rows of t's reserved vectors from row off on, with a dictionary
// of its own: appending to it fills the window in place. A column that
// gives its dictionary up, or meets its first NULL, leaves the window
// for vectors of its own.
func (t *Table) window(off, n int) *Table {
	w := &Table{Def: t.Def, cols: make([]Column, len(t.cols))}
	for i := range t.cols {
		c, wc := &t.cols[i], &w.cols[i]
		wc.Type = c.Type
		switch physKind(c.Type) {
		case KindInt, KindDate:
			wc.ints = c.ints[off : off : off+n]
		case KindFloat:
			wc.flts = c.flts[off : off : off+n]
		default:
			wc.codes, wc.dict = c.codes[off:off:off+n], &strDict{codes: map[string]uint16{}}
		}
	}
	return w
}

// merge makes t, whose reserved vectors parts decoded into through
// window, the table one ReadFlat of the parts' lines in turn would have
// built. Windows are moved down over the rows that empty lines did not
// fill, piece null vectors are copied into one, and string columns
// re-enter their cells through encode (mergeStrings).
func (t *Table) merge(parts []*Table) {
	at := make([]int, len(parts)+1) // at[k]: the table row of part k's row 0
	for k, p := range parts {
		at[k+1] = at[k] + p.NumRows()
	}
	rows := at[len(parts)]
	for ci := range t.cols {
		c := &t.cols[ci]
		for k, p := range parts {
			pc := &p.cols[ci]
			if pc.nulls != nil && c.nulls == nil {
				c.nulls = make([]bool, rows)
			}
			if pc.nulls != nil {
				copy(c.nulls[at[k]:], pc.nulls)
			}
			switch physKind(c.Type) {
			case KindInt, KindDate:
				c.ints = place(c.ints, at[k], pc.ints)
			case KindFloat:
				c.flts = place(c.flts, at[k], pc.flts)
			}
		}
		if physKind(c.Type) == KindString {
			t.mergeStrings(ci, parts, at)
		}
	}
	t.fit()
	t.epoch += uint64(rows)
}

// place moves w, a window of v's array at or past row at, to row at
// and returns v extended over it.
func place[T any](v []T, at int, w []T) []T {
	v = v[:at+len(w)]
	if len(w) > 0 && &v[at] != &w[0] {
		copy(v[at:], w)
	}
	return v
}

// mergeStrings gives string column ci of t the dictionary, layout and
// cells a serial load would have given it, by encode's own rule. The
// first part saw the serial rows from row 0 on, so its column is the
// serial one up to its end. Every later part's cells then enter in row
// order through the column's encode:
//   - While the column and the part are on dictionaries whose sizes sum
//     to at most dictTrial, no value can meet the ratio rule, so the
//     part's values enter in code order (its first-seen order) and its
//     codes are translated, or only moved when the translation is the
//     identity.
//   - Otherwise each row goes through appendStr, its cell read before
//     its row is written (the part's codes may share the column's
//     array).
//
// A NULL row's payload is what a serial load leaves: code 0, or ""
// once the column is plain.
func (t *Table) mergeStrings(ci int, parts []*Table, at []int) {
	c, rows := &t.cols[ci], at[len(parts)]
	if c.dict = parts[0].cols[ci].dict; c.dict != nil {
		c.codes = c.codes[:at[1]]
	} else {
		c.codes, c.strs = nil, append(make([]string, 0, rows), parts[0].cols[ci].strs...)
	}
	for k := 1; k < len(parts); k++ {
		pc := &parts[k].cols[ci]
		if c.dict != nil && pc.dict != nil && len(c.dict.vals)+len(pc.dict.vals) <= dictTrial {
			to, same := make([]uint16, len(pc.dict.vals)), true
			for code, v := range pc.dict.vals {
				to[code], _ = encode(c, v)
				same = same && to[code] == uint16(code)
			}
			if same {
				c.codes = place(c.codes, at[k], pc.codes)
				continue
			}
			dst := c.codes[at[k]:at[k+1]]
			for r, code := range pc.codes {
				dst[r] = to[code]
				if IsNull(pc.nulls, r) {
					dst[r] = 0
				}
			}
			c.codes = c.codes[:at[k+1]]
			continue
		}
		for r := range at[k+1] - at[k] {
			switch {
			case !IsNull(pc.nulls, r):
				appendStr(c, pc.str(r))
			case c.dict != nil:
				c.codes = append(c.codes, 0)
			default:
				c.strs = append(c.strs, "")
			}
		}
	}
}

// DumpDir writes every table of the database as "<table>.dat" flat
// files into dir (created if missing).
//
// Every table is cut into pieces of dumpRows rows (an empty table is
// one empty piece), and GOMAXPROCS workers render the pieces into one
// reused buffer each, sharing each table's flatDicts: a dictionary-coded
// column is escaped once a dump, not once a cell. The pieces are written in turn, in table-name
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
		dicts  flatDicts
		lo, hi int
	}
	names, count := db.Names(), 0
	for _, name := range names {
		count += max((db.Table(name).NumRows()+dumpRows-1)/dumpRows, 1)
	}
	pieces := make([]piece, 0, count)
	for _, name := range names {
		t := db.Table(name)
		dicts, n := t.renderDicts(), t.NumRows()
		for lo := 0; lo == 0 || lo < n; lo += dumpRows {
			pieces = append(pieces, piece{name, t, dicts, lo, min(lo+dumpRows, n)})
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
		bufs[w], _ = p.t.appendFlatRows(bufs[w][:0], p.dicts, p.lo, p.hi, math.MaxInt)
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
