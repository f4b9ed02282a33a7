// Late-materialised join intermediates. Between join operators a row is
// not a full-width []storage.Value but a tuple of base-table row ids,
// stored column-wise: one []int32 per joined table. A join step appends
// 4 bytes per table and output row. Join keys are read straight off the
// column vectors through the id vector, and every other expression runs
// as a vector program (batch.go) whose column reads go through the id
// vectors a batch at a time.
//
// Order contract: every constructor below takes its input in the
// operator's emit order (probe-major) and preserves it, so results stay
// bit-identical to a row-at-a-time pipeline.
package exec

import (
	"encoding/binary"
	"fmt"
	"slices"

	"tpcds/internal/index"
	"tpcds/internal/schema"
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
// vectors against the current profile node.
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

// keep compacts the rows at positions pos (ascending, ≥ from) into rows
// from, from+1, … and returns the next row to keep into.
func (rs *rowSet) keep(from int, pos []int32) int {
	for _, col := range rs.ids {
		if col != nil {
			for k, p := range pos {
				col[from+k] = col[p]
			}
		}
	}
	return from + len(pos)
}

// truncate keeps the first n rows.
func (rs *rowSet) truncate(n int) {
	for t, col := range rs.ids {
		if col != nil {
			rs.ids[t] = col[:n]
		}
	}
	rs.n = n
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
// yet, or the column is an expression's own vector, rowSource.view) for
// a row of the base table.
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
	if r < 0 || k.col.null(r) {
		return 0, false
	}
	return k.col.ints[r], true
}

// matcher returns the reader of the rows of ix holding the raw int64 key
// at a position (nil on NULL: NULL never joins), with the lookup fused
// into the one call a probe makes per row. The NULL and id tests are
// chosen here, once: a column without NULLs reads no null vector, and a
// base-table row no id vector (EXPERIMENTS.md "A column without NULLs
// carries no null vector" has the probe measurement).
func (k *keySource) matcher(ix *index.HashIndex) func(i int32) []int32 {
	ids, ints, nulls := k.ids, k.col.ints, k.col.nulls
	switch {
	case nulls != nil:
		return func(i int32) []int32 {
			if ids != nil {
				i = ids[i]
			}
			if i < 0 || nulls[i] {
				return nil
			}
			return ix.Lookup(ints[i])
		}
	case ids != nil:
		return func(i int32) []int32 {
			if r := ids[i]; r >= 0 {
				return ix.Lookup(ints[r])
			}
			return nil
		}
	}
	return func(i int32) []int32 { return ix.Lookup(ints[i]) }
}

// appendKey appends the encoded join key at position i to buf; ok=false
// on a NULL component.
func appendKey(ks []keySource, i int32, buf []byte) ([]byte, bool) {
	for k := range ks {
		r := ks[k].row(i)
		if r < 0 || ks[k].col.null(r) {
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

// rowSource is the input of the post-join operators: the joined rowSet
// in the base layout, or, when rs is nil, the n rows of the binder's
// aggregated layout.
type rowSource struct {
	b  *binder
	rs *rowSet
	n  int
}

// frame returns a frame of slots slots bound to src's rows.
func (s *rowSource) frame(slots int) *frame {
	fr := newFrame(slots)
	if s.rs != nil {
		fr.ids = s.rs.ids
	}
	return fr
}

// view reads e in every row of src for key numbering and aggregate
// folds: a bare column through its table's id vector, a slot of the
// aggregated layout as it is, anything else gathered.
func (s *rowSource) view(e bexpr) keySource {
	if c, ok := e.(*colExpr); ok && s.rs != nil {
		return s.b.keySources(s.rs, []*colExpr{c})[0]
	} else if ok && c.tblBit == 0 {
		return keySource{col: s.b.layout[c.off]}
	}
	return keySource{col: s.gather(e, nil)}
}

// gather runs e's program over the rows at positions rows (nil: every
// row of src), a batch at a time, into a vector of its own.
func (s *rowSource) gather(e bexpr, rows []int32) colReader {
	c, n := &vcomp{b: s.b}, len(rows)
	p, out := c.val(e), colReader{}
	if rows == nil {
		n = s.n
	}
	out.resize(p.kind, n, p.dict)
	fr, pos := s.frame(c.slots), make([]int32, min(n, batchLen))
	for base := 0; base < n; base += batchLen {
		s.b.qc.checkNow()
		sel := pos[:min(batchLen, n-base)]
		for i := range sel {
			sel[i] = int32(base + i)
		}
		if rows != nil {
			sel = rows[base : base+len(sel)]
		}
		v := p.val(fr, sel)
		for j, r := range v.idx {
			out.put(base+j, v.cr, r)
		}
	}
	return out
}

// selection is the rows of one table instance that survive its local
// predicates, in row order: the one product of the table's filter, read
// by every operator of the query that touches the table. The conjuncts
// the engine's value bitmaps answer (answer) give bm; the rest run as
// kernels over bm's rows, or over the table when none was answered.
type selection struct {
	n   int     // surviving rows, once rest is nil
	ids []int32 // their row ids, ascending; nil when all is set, n is 0, or not listed from bm yet
	all bool    // no local predicate: row i survives for every i < n
	// bm is the rows the answered conjuncts keep, a private copy: with
	// rest nil exactly the survivors. nil when no conjunct was answered
	// or the survivors are known as ids only.
	bm   *index.Bitmap
	rest []bexpr // conjuncts no bitmap answered that have not run yet
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
		b.qc.rowsScanned += sel.n
	}
}

// selection returns table ti's selection with its row ids listed,
// filtering on first use: once per query, under a scan node of its own.
// joinRows owns the cache and drops it when it returns. Without local
// predicates nothing is filtered or materialised.
func (b *binder) selection(ti int, filters []filterInfo) *selection {
	sel := b.filterRows(ti, filters, true)
	if !sel.all && sel.ids == nil && sel.n > 0 {
		sel.ids = sel.bm.AppendIDs(make([]int32, 0, sel.n))
		b.qc.growScratch(int64(sel.n) * 4)
		b.qc.shrinkScratch(int64(sel.n) * 4)
	}
	return sel
}

// filterRows computes table ti's selection as far as asked: the bitmap
// answer on first use, and, when whole is set, the remaining conjuncts
// over its rows, so that n is exact. Rows read — by a kernel or by a
// cold index build — count as scanned; a cached bitmap reads none.
func (b *binder) filterRows(ti int, filters []filterInfo, whole bool) *selection {
	if ti < 0 || ti >= len(b.sels) {
		panic(fmt.Sprintf("exec: selection of table %d requested outside the join phase (%d tables)", ti, len(b.sels)))
	}
	sel := b.sels[ti]
	if sel != nil && (sel.rest == nil || !whole) {
		return sel
	}
	inst := b.tableAt(ti)
	var preds []bexpr
	if sel == nil {
		if preds = tablePreds(ti, filters); len(preds) == 0 {
			b.sels[ti] = &selection{n: inst.tab.NumRows(), all: true}
			return b.sels[ti]
		}
		if !whole && !b.answerable(ti, preds) {
			b.sels[ti] = &selection{rest: preds}
			return b.sels[ti]
		}
	}
	b.qc.startOp("scan", inst.binding)
	defer b.qc.endOp()
	read := 0
	if sel == nil {
		sel = &selection{rest: preds}
		if b.bitmapTable(ti) {
			sel, read = b.answer(ti, preds)
		}
		b.sels[ti] = sel
	}
	if whole && sel.rest != nil {
		read += b.scanRest(ti, sel)
	}
	b.qc.rowsScanned += read
	b.qc.opRowsIn(int64(read))
	out, scratch := sel.n, int64(len(sel.ids))*4
	switch {
	case sel.rest != nil && sel.bm != nil:
		out = sel.bm.Count()
	case sel.rest != nil:
		out = inst.tab.NumRows() // nothing answered, nothing filtered yet
	}
	if sel.bm != nil {
		scratch += int64(sel.bm.Len()+7) / 8
	}
	b.qc.opRowsOut(int64(out))
	b.qc.growScratch(scratch)
	b.qc.shrinkScratch(scratch)
	return sel
}

// bitmapTable is the rule for which tables answer conjuncts from value
// bitmaps: a catalog table that is not a fact, with more than
// bitmapTableRows rows (customer_demographics, date_dim and time_dim at
// every scale factor). Which of its columns have bitmaps is
// Engine.valueIndex's rule.
func (b *binder) bitmapTable(ti int) bool {
	inst := b.tableAt(ti)
	return inst.tab.Def.Kind != schema.Fact && inst.tab.NumRows() > bitmapTableRows && b.eng.db.Table(inst.tab.Def.Name) == inst.tab
}

// bitmapTableRows is the size above which a dimension answers
// one-column conjuncts from value bitmaps instead of scanning.
const bitmapTableRows = 64 * 1024

// answerable reports whether value bitmaps may answer one of preds: ti
// is under the rule and a conjunct reads one column alone.
func (b *binder) answerable(ti int, preds []bexpr) bool {
	inst := b.tableAt(ti)
	return b.bitmapTable(ti) && slices.ContainsFunc(preds, func(p bexpr) bool { return soleColumn(inst, p) >= 0 })
}

// answer splits table ti's conjuncts. One that reads a single column
// with value bitmaps, and nothing else, keeps the rows of the values it
// holds true for, and the NULL rows when it holds for NULL: the union of
// those values' rows. The answers are ANDed into a private bitmap (the
// cached indexes are only read); the other conjuncts are left in rest.
// read is the rows cold index builds read. Whether ti is under the
// table rule (bitmapTable) is the caller's check.
func (b *binder) answer(ti int, preds []bexpr) (sel *selection, read int) {
	sel = &selection{}
	inst := b.tableAt(ti)
	var m index.Merge
	for _, p := range preds {
		var ix *index.BitmapIndex
		col := soleColumn(inst, p)
		if col >= 0 {
			var r int
			ix, r = b.eng.valueIndex(inst.tab, col)
			read += r
		}
		if ix == nil {
			sel.rest = append(sel.rest, p)
			continue
		}
		keys, nulls := b.valueHits(inst, col, ix, p)
		m.AndAny(ix, keys, nulls)
	}
	if sel.bm = m.Result(); sel.rest == nil {
		sel.n = sel.bm.Count()
	}
	return sel, read
}

// soleColumn returns the column of inst that p reads when it reads that
// one column and nothing else, else -1.
func soleColumn(inst *tabInst, p bexpr) int {
	cols := exprCols(p)
	if len(cols) == 0 {
		return -1
	}
	for _, c := range cols[1:] {
		if c.off != cols[0].off {
			return -1
		}
	}
	if c := cols[0].off - inst.offset; c >= 0 && c < inst.width() {
		return c
	}
	return -1
}

// valueHits returns the keys of ix's values that p holds true for —
// each value boxed as the column's reader boxes it, a code as its
// dictionary string — and whether p holds for NULL.
// p reads column col of inst only, so its value decides p.
func (b *binder) valueHits(inst *tabInst, col int, ix *index.BitmapIndex, p bexpr) (keys []int64, nulls bool) {
	cr := newColReader(inst, col)
	row := make([]storage.Value, b.total)
	for _, k := range ix.Keys() {
		if cr.codes != nil {
			row[cr.off] = storage.Str(cr.dict[k])
		} else {
			row[cr.off] = storage.Value{K: cr.kind, I: k}
		}
		if truthy(p.eval(row)) {
			keys = append(keys, k)
		}
	}
	row[cr.off] = storage.Null
	return keys, truthy(p.eval(row))
}

// scanRest runs sel's remaining conjuncts as kernels over bm's rows or,
// when no conjunct was answered, over the whole table, and lists the
// survivors. It returns the number of rows read.
func (b *binder) scanRest(ti int, sel *selection) int {
	tf := b.compileFilter(sel.rest)
	var ids []int32
	n := b.tableAt(ti).tab.NumRows()
	if sel.bm != nil {
		ids = sel.bm.AppendIDs(nil)
		n = len(ids)
	}
	// Exact-sized chunks, one per batch, joined once into one vector.
	var chunks [][]int32
	tf.scan(b.qc, batchLen, ids, 0, n, func(s []int32) { chunks = append(chunks, slices.Clone(s)) })
	sel.ids = slices.Concat(chunks...)
	sel.n, sel.bm, sel.rest = len(sel.ids), nil, nil
	return n
}

// lookupFilter is the filter an index lookup join keeps table ti's
// matched rows by (nil when ti is unfiltered): a bit test against the
// selection's bitmap — listed from its ids when the kernels already ran
// — then the conjuncts no bitmap answered, when they have not run yet.
func (b *binder) lookupFilter(ti int, filters []filterInfo) *tableFilter {
	sel := b.filterRows(ti, filters, false)
	if sel.all {
		return nil
	}
	if sel.bm == nil && sel.rest == nil {
		sel.bm = index.NewBitmap(b.tableAt(ti).tab.NumRows())
		for _, r := range sel.ids {
			sel.bm.Set(int(r))
		}
	}
	tf := b.compileFilter(sel.rest)
	tf.bm = sel.bm
	return tf
}
