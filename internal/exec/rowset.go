// Late-materialised join intermediates. Between join operators a row is
// not a full-width []storage.Value but a tuple of base-table row ids,
// stored column-wise: one []int32 per joined table. A join step appends
// 4 bytes per table and output row; column values are gathered into a
// reusable scratch row only where an operator evaluates an expression
// (residual and LEFT JOIN ON predicates, grouping, aggregate arguments,
// projections, sort keys), and join keys are read straight off the
// column vectors through the id vector.
//
// Order contract: every constructor below takes its input in the
// operator's serial emit order (probe-major, morsel chunks concatenated
// in morsel order) and preserves it, so results stay bit-identical to a
// row-at-a-time pipeline whatever the worker count.
package exec

import (
	"encoding/binary"
	"fmt"
	"slices"

	"tpcds/internal/storage"
)

// rowSet is the currency between join operators: ids[t] holds, for each
// of the n intermediate rows, the row id in table instance t, or is nil
// while t is not joined yet. An id of -1 is the NULL-extended side of a
// LEFT JOIN miss. CTE-backed instances are storage tables like any
// other, so their row ids work the same way.
type rowSet struct {
	n   int
	ids [][]int32
}

// matchPair is one join match: intermediate row li joins table row r.
type matchPair struct {
	li, r int32
}

const matchPairBytes = 8

// bytes is the footprint of the id vectors, for scratch accounting.
func (rs *rowSet) bytes() int64 {
	var vecs int64
	for _, col := range rs.ids {
		if col != nil {
			vecs++
		}
	}
	return vecs * int64(rs.n) * 4
}

// charge accounts an operator's staging bytes plus its output id
// vectors against the current profile node. Operators call it on the
// coordinator after the morsel barrier, so the recorded peak does not
// depend on the worker schedule.
func (rs *rowSet) charge(qc *qctx, staging int64) {
	qc.growScratch(staging + rs.bytes())
	qc.shrinkScratch(staging + rs.bytes())
}

// extend joins table ti onto rs: output row j is input row pairs[j].li
// with table row pairs[j].r.
func (rs *rowSet) extend(qc *qctx, pairs []matchPair, ti int) *rowSet {
	out := &rowSet{n: len(pairs), ids: make([][]int32, len(rs.ids))}
	for t, col := range rs.ids {
		if col == nil {
			continue
		}
		qc.checkNow()
		g := make([]int32, len(pairs))
		for j, p := range pairs {
			g[j] = col[p.li]
		}
		out.ids[t] = g
	}
	add := make([]int32, len(pairs))
	for j, p := range pairs {
		add[j] = p.r
	}
	out.ids[ti] = add
	out.charge(qc, int64(len(pairs))*matchPairBytes)
	return out
}

// tupleRowSet splits row-major id tuples (one id per table of tables,
// in that order) into per-table vectors.
func (b *binder) tupleRowSet(tables []int, flat []int32) *rowSet {
	stride := len(tables)
	rs := &rowSet{n: len(flat) / stride, ids: make([][]int32, len(b.tables))}
	for k, t := range tables {
		col := make([]int32, rs.n)
		for i := range col {
			col[i] = flat[i*stride+k]
		}
		rs.ids[t] = col
	}
	rs.charge(b.qc, int64(len(flat))*4)
	return rs
}

// filter keeps the rows keep reports true for, compacting in place.
func (rs *rowSet) filter(keep func(i int) bool) {
	w := 0
	for i := 0; i < rs.n; i++ {
		if !keep(i) {
			continue
		}
		if w != i {
			for _, col := range rs.ids {
				if col != nil {
					col[w] = col[i]
				}
			}
		}
		w++
	}
	rs.n = w
	for t, col := range rs.ids {
		if col != nil {
			rs.ids[t] = col[:w]
		}
	}
}

// sortPairsByLeft reorders match pairs probe-major — li ascending,
// input order within one li — with a stable counting sort over the n
// intermediate rows.
func sortPairsByLeft(pairs []matchPair, n int) []matchPair {
	next := make([]int32, n+1)
	for _, p := range pairs {
		next[p.li+1]++
	}
	for i := 1; i <= n; i++ {
		next[i] += next[i-1]
	}
	out := make([]matchPair, len(pairs))
	for _, p := range pairs {
		out[next[p.li]] = p
		next[p.li]++
	}
	return out
}

// keySource reads one column: through the owning table's id vector for
// an intermediate row, or directly (ids nil: the table is not joined
// yet) for a row of the base table.
type keySource struct {
	ids []int32
	col colReader
}

// keySources resolves columns to vector readers through rs's id
// vectors; rs nil reads base-table rows.
func (b *binder) keySources(rs *rowSet, cols []*colExpr) []keySource {
	out := make([]keySource, len(cols))
	for i, c := range cols {
		ti := bitIndex(c.tblBit)
		cr, ok := b.kernelCol(ti, c)
		if !ok {
			// Join edges and gathers always bind to plain columns; anything
			// else is an executor invariant violation.
			panic("exec: column reader for a non-table column")
		}
		out[i].col = *cr
		if rs != nil {
			out[i].ids = rs.ids[ti]
		}
	}
	return out
}

// row maps position i to the base-table row id, -1 for an outer miss.
func (k *keySource) row(i int32) int32 {
	if k.ids != nil {
		return k.ids[i]
	}
	return i
}

// intAt returns the raw int64 key at position i; ok=false on NULL
// (NULL never joins).
func (k *keySource) intAt(i int32) (int64, bool) {
	r := k.row(i)
	if r < 0 || k.col.nulls[r] {
		return 0, false
	}
	return k.col.ints[r], true
}

// appendKey appends the encoded join key at position i to buf; ok=false
// on a NULL component.
func appendKey(ks []keySource, i int32, buf []byte) ([]byte, bool) {
	for k := range ks {
		r := ks[k].row(i)
		if r < 0 || ks[k].col.nulls[r] {
			return buf, false
		}
		buf = appendKeyPart(buf, ks[k].col.value(r))
	}
	return buf, true
}

// appendKeyPart appends one component of a composite key: GroupKey's
// encoding, with a string's length ahead of its bytes — a string may hold
// the 0 byte every encoding starts with, so GroupKeys alone run together.
func appendKeyPart(buf []byte, v storage.Value) []byte {
	if v.K != storage.KindString {
		return v.AppendGroupKey(buf)
	}
	return append(binary.AppendUvarint(append(buf, 0, 's'), uint64(len(v.S))), v.S...)
}

// gather fills row with the columns ks read: a joined table's at
// intermediate row i, any other at base-table row r. An id of -1, the
// NULL side of a LEFT JOIN miss, reads NULL.
func gather(ks []keySource, i, r int32, row []storage.Value) {
	for k := range ks {
		id, off := r, ks[k].col.off
		if ks[k].ids != nil {
			id = ks[k].ids[i]
		}
		row[off] = storage.Null
		if id >= 0 {
			row[off] = ks[k].col.value(id)
		}
	}
}

// rowSource is the input of the post-join operators: the joined rowSet
// in the base layout, or, when rs is nil, materialised rows (vals, the
// aggregated layout).
type rowSource struct {
	qc   *qctx
	b    *binder
	rs   *rowSet
	vals [][]storage.Value
	n    int
}

// scratch returns a row for readers to gather into, one per worker; nil
// when none of them gathers.
func (s *rowSource) scratch(readers ...*exprReader) []storage.Value {
	for _, x := range readers {
		if len(x.cols) > 0 {
			return make([]storage.Value, s.b.total)
		}
	}
	return nil
}

// exprReader evaluates one expression over a rowSource: a bare column
// straight off its vector, anything else over a scratch row holding just
// its columns, or over the materialised row.
type exprReader struct {
	e    bexpr
	col  *colReader  // bare column
	ids  []int32     // its table's id vector
	cols []keySource // the columns any other expression reads
	vals [][]storage.Value
}

func (s *rowSource) reader(e bexpr) *exprReader {
	x := &exprReader{e: e, vals: s.vals}
	if c, ok := e.(*colExpr); ok && s.rs != nil {
		ti := bitIndex(c.tblBit)
		x.col, _ = s.b.kernelCol(ti, c)
		x.ids = s.rs.ids[ti]
	} else if s.rs != nil {
		x.cols = s.b.keySources(s.rs, exprCols(e))
	}
	return x
}

// value returns the expression's value in row i.
func (x *exprReader) value(i int, row []storage.Value) storage.Value {
	switch {
	case x.col != nil:
		if r := x.ids[i]; r >= 0 {
			return x.col.value(r)
		}
		return storage.Null
	case x.vals != nil:
		row = x.vals[i]
	default:
		gather(x.cols, int32(i), -1, row)
	}
	e := x.e // through a local: dslint's summaries count a call on x's field as mutating x
	return e.eval(row)
}

// rowIDs returns a bare column's table ids for rows [lo, hi).
func (x *exprReader) rowIDs(lo, hi int) []int32 {
	if x.col == nil {
		return nil
	}
	return x.ids[lo:hi]
}

// passes reports whether every predicate holds for row.
func passes(preds []bexpr, row []storage.Value) bool {
	for _, p := range preds {
		if !truthy(p.eval(row)) {
			return false
		}
	}
	return true
}

// collectMorsels runs fn over [0,n) — in morsels on the worker pool when
// n is large, in one call otherwise — and concatenates what the calls
// return in morsel order, which is the serial order. fn runs on worker
// goroutines: it polls cancellation with checkNow, never tick.
func collectMorsels[T any](e *Engine, qc *qctx, n int, tr *Trace, fn func(lo, hi int) []T) []T {
	workers, morsel := e.parts(n), e.morselSize()
	if workers <= 1 {
		return fn(0, n)
	}
	chunks := make([][]T, (n+morsel-1)/morsel)
	counts := forEachMorsel(qc, workers, n, morsel, func(_, m, lo, hi int) {
		chunks[m] = fn(lo, hi)
	})
	tr.addWork(counts)
	return slices.Concat(chunks...)
}

// selection is the rows of one table instance that survive its local
// predicates, in row order: the one product of the table's filter scan,
// read by every operator of the query that touches the table.
type selection struct {
	n    int     // surviving rows
	ids  []int32 // their row ids, ascending; nil when all is set or n is 0
	all  bool    // no local predicate: row i survives for every i < n
	read int     // table rows filtered so far; short of the table only after a capped scan
}

// at returns the row id at position i.
func (s *selection) at(i int) int32 {
	if s.all {
		return int32(i)
	}
	return s.ids[i]
}

// rowIDs is the selection as an id vector: never nil, identity filled in.
func (s *selection) rowIDs() []int32 {
	if s.ids != nil {
		return s.ids
	}
	ids := make([]int32, s.n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// readAll counts an identity selection's rows as scanned, for the one
// operator that reads the unfiltered table itself, not through an index.
func (b *binder) readAll(sel *selection) {
	if sel.all {
		b.qc.countScan(sel.n)
	}
}

// selection returns table ti's selection, running the table's compiled
// filter on first use: once per query, in morsels, under a scan node of
// its own. joinRows owns the cache and drops it when it returns. Without
// local predicates no filter runs and nothing is materialised.
func (b *binder) selection(ti int, filters []filterInfo, tr *Trace) *selection {
	return b.scanSelection(ti, filters, tr, -1)
}

// filtered reports whether table ti's filter has run over the whole table.
func (b *binder) filtered(ti int) bool {
	return ti >= 0 && ti < len(b.sels) && b.sels[ti] != nil && b.sels[ti].read == b.tableAt(ti).tab.NumRows()
}

// scanSelection is selection with a cap: for limit ≥ 0 the filter runs
// in rounds, one batch per worker doubling up to one morsel per worker,
// until more than limit rows survive. The partial selection stays cached
// for a later call to resume: no row is filtered twice in one query.
func (b *binder) scanSelection(ti int, filters []filterInfo, tr *Trace, limit int) *selection {
	if ti < 0 || ti >= len(b.sels) {
		panic(fmt.Sprintf("exec: selection of table %d requested outside the join phase (%d tables)", ti, len(b.sels)))
	}
	inst := b.tableAt(ti)
	n, preds := inst.tab.NumRows(), tablePreds(ti, filters)
	if b.sels[ti] == nil {
		b.sels[ti] = &selection{}
		if len(preds) == 0 {
			b.sels[ti] = &selection{n: n, all: true, read: n}
		}
	}
	sel := b.sels[ti]
	if sel.read == n || limit >= 0 && sel.n > limit {
		return sel
	}
	sp := b.qc.startOp("scan", inst.binding)
	defer b.qc.endOp(sp)
	if b.qc.profiling() {
		b.qc.opEst(b.eng.estimateFiltered(b, ti, filters))
	}
	// The filter is compiled once by the coordinator; kernels close over
	// immutable column vectors only, so morsel workers share it. Each
	// scan call owns its scratch buffers.
	tf, batch := b.compileFilter(ti, preds), b.eng.batchSize()
	from, found, step := sel.read, sel.n, n
	if limit >= 0 {
		step = batch * b.eng.workers()
	}
	for ; sel.read < n && (limit < 0 || sel.n <= limit); step = min(2*step, b.eng.morselSize()*b.eng.workers()) {
		lo, hi := sel.read, min(sel.read+step, n)
		// Exact-sized chunks, one per batch, joined once into one vector.
		chunks := collectMorsels(b.eng, b.qc, hi-lo, tr, func(a, c int) [][]int32 {
			var out [][]int32
			tf.scan(b.qc, batch, nil, lo+a, lo+c, func(s []int32) { out = append(out, slices.Clone(s)) })
			return out
		})
		sel.ids = slices.Concat(append([][]int32{sel.ids}, chunks...)...)
		sel.n, sel.read = len(sel.ids), hi
	}
	b.qc.countScan(sel.read - from)
	b.qc.opRowsIn(sp, int64(sel.read-from))
	b.qc.opRowsOut(sp, int64(sel.n-found))
	b.qc.growScratch(int64(sel.n) * 8)
	b.qc.shrinkScratch(int64(sel.n) * 8)
	return sel
}
