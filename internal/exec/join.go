package exec

import (
	"fmt"

	"tpcds/internal/index"
	"tpcds/internal/obs"
	"tpcds/internal/plan"
	"tpcds/internal/sql"
)

// leftJoin describes one LEFT OUTER JOIN table with its equality edges
// (normalized so the b side is the outer table) and residual ON
// conditions.
type leftJoin struct {
	table int
	edges []joinEdge
	extra []bexpr
}

// joinRows produces the joined base rows of a query as a rowSet: one
// row-id vector per table instance (values are gathered later, where an
// expression reads them). The join order comes from the cost-based
// search with its plan cache, and the star-vs-hash choice from the cost
// model (plan.ChooseCost). The tests' reference takes the greedy order
// and hash joins; the emitted rows are bit-identical either way:
// planning may change cost, never results. The returned trace belongs
// to this call alone, so concurrent streams never see each other's
// plans.
func (e *Engine) joinRows(b *binder, stmt *sql.SelectStmt, filters []filterInfo, edges []joinEdge, residual []bexpr, lefts []leftJoin) (*rowSet, Trace, error) {
	if len(b.tables) == 0 {
		return nil, Trace{}, fmt.Errorf("no tables to join")
	}
	b.sels = make([]*selection, len(b.tables))
	defer func() { b.sels = nil }()
	tr := Trace{
		Strategy: plan.HashJoinPipeline,
		Tables:   e.buildTableTraces(b, filters),
	}
	isLeft := map[int]bool{}
	for _, lj := range lefts {
		isLeft[lj.table] = true
	}
	driver, gOrder, connected := e.greedyJoinOrder(b, filters, edges, isLeft)
	if driver < 0 {
		return nil, Trace{}, fmt.Errorf("all tables are left-joined")
	}

	if e.reference {
		tr.PlanSource = "greedy"
		rows, order := e.executeJoinOrder(b, gOrder, nil, filters, edges, residual, lefts)
		tr.JoinOrder = order
		tr.BaseRows = rows.n
		return rows, tr, nil
	}
	planned, hit := e.costPlan(b, stmt, filters, edges, isLeft, driver, gOrder, connected)
	tr.PlanSource = planned.Source
	if hit {
		tr.PlanSource = "cache:" + planned.Source
	}
	tr.EstBaseRows = planned.EstRows

	if shape, fact, dims, ok := e.starShape(b, filters, edges, lefts); ok {
		decision := plan.ChooseCost(shape, planned.Cost, e.mode)
		tr.Decision = decision
		if decision.Strategy == plan.StarTransform {
			starEst := shape.CombinedSelectivity() * float64(shape.FactRows)
			rows, ok := e.runStar(b, filters, residual, fact, dims, starEst)
			if ok {
				tr.Strategy = plan.StarTransform
				tr.JoinOrder = []string{shape.FactName + " (bitmap-driven)"}
				tr.BaseRows = rows.n
				return rows, tr, nil
			}
		}
	}
	rows, order := e.executeJoinOrder(b, planned.Order, planned.StepEst, filters, edges, residual, lefts)
	tr.JoinOrder = order
	tr.BaseRows = rows.n
	return rows, tr, nil
}

// tablePreds collects the bound local predicates of one table.
func tablePreds(ti int, filters []filterInfo) []bexpr {
	var preds []bexpr
	for _, f := range filters {
		if f.table == ti {
			preds = append(preds, f.pred)
		}
	}
	return preds
}

// estimateFiltered estimates the filtered cardinality of a table:
// analyzable predicates use NDV and min/max statistics, other
// predicates the plan package's fixed heuristics.
func (e *Engine) estimateFiltered(b *binder, ti int, filters []filterInfo) float64 {
	est := float64(b.tableAt(ti).tab.NumRows())
	for _, f := range filters {
		if f.table != ti {
			continue
		}
		sel := -1.0
		if f.hintOK {
			if s, ok := e.hintSelectivity(b, f.hint); ok {
				sel = s
			}
		}
		if sel < 0 {
			sel = plan.EstimateFilterSelectivity(f.kind)
		}
		est *= sel
	}
	return est
}

// executeJoinOrder runs the hash-join pipeline (§2.1: "access paths in
// a 3NF DSS system are dominated by large hash-joins") over an explicit
// join order — driver first, then each inner table hash-built on its
// join columns and probed, every step appending one row-id vector.
// The search and the reference's greedy order both satisfy the
// probe-major order invariant, so execution needs no knowledge of
// which one planned. stepEst carries the planner's per-step output
// estimates aligned with order (stepEst[k] estimates the intermediate
// cardinality after joining order[k]); nil in the reference. Estimates
// feed only the profile — execution never branches on them.
func (e *Engine) executeJoinOrder(b *binder, order []int, stepEst []float64, filters []filterInfo, edges []joinEdge, residual []bexpr, lefts []leftJoin) (*rowSet, []string) {
	if len(order) == 0 {
		panic("exec: empty join order")
	}
	driver := order[0]
	current := e.scanFiltered(b, driver, filters)
	joined := map[int]bool{driver: true}
	desc := []string{b.tableAt(driver).binding + " (driver)"}
	for k, ti := range order[1:] {
		est := -1.0
		if s := k + 1; s >= 0 && s < len(stepEst) {
			est = stepEst[s]
		}
		current = e.innerHashJoin(b, current, ti, filters, edges, joined, est)
		joined[ti] = true
		desc = append(desc, b.tableAt(ti).binding)
	}
	// LEFT OUTER joins, in declaration order.
	for _, lj := range lefts {
		current = e.leftHashJoin(b, current, lj, filters)
		joined[lj.table] = true
		desc = append(desc, b.tableAt(lj.table).binding+" (left)")
	}
	b.applyResidual(current, residual)
	return current, desc
}

// applyResidual drops the rows failing a cross-table predicate: its
// vector program runs over the id vectors a batch at a time, and the
// survivors are compacted in place.
func (b *binder) applyResidual(rs *rowSet, residual []bexpr) {
	if len(residual) > 0 {
		w := 0
		b.compileFilter(residual).passing(b.qc, rs.n, batchLen, rs.ids, nil, func(sel []int32) { w = rs.keep(w, sel) })
		rs.truncate(w)
	}
}

// joinKeys extracts the probe/build key expressions for joining table ti
// against the already-joined set.
func joinKeys(edges []joinEdge, joined map[int]bool, ti int) (probe, build []*colExpr) {
	for _, ed := range edges {
		switch {
		case joined[ed.aTbl] && ed.bTbl == ti:
			probe = append(probe, ed.aCol)
			build = append(build, ed.bCol)
		case joined[ed.bTbl] && ed.aTbl == ti:
			probe = append(probe, ed.bCol)
			build = append(build, ed.aCol)
		}
	}
	return probe, build
}

// lookupRowsPerProbe is the size rule of the index lookup join onto a
// filtered table: at least this many table rows per intermediate row
// (measured in DESIGN.md, "The hash pipeline").
const lookupRowsPerProbe = 2

// lookupKey returns the primary-key column of table ti when the join
// onto it on probe = build is an index lookup join, else -1: one
// integer-class edge onto ti's one-column primary key, ti the catalog's
// table (not a CTE), and ti unfiltered or at least lookupRowsPerProbe
// rows per outer row.
func (b *binder) lookupKey(ti int, probe, build []*colExpr, filters []filterInfo, outer int) int {
	inst := b.tableAt(ti)
	def := inst.tab.Def
	if len(build) != 1 || !intJoinKey(probe, build) || len(def.PrimaryKey) != 1 || b.eng.db.Table(def.Name) != inst.tab {
		return -1
	}
	col := build[0].off - inst.offset
	if def.ColumnIndex(def.PrimaryKey[0]) != col || len(tablePreds(ti, filters)) > 0 && outer*lookupRowsPerProbe > inst.tab.NumRows() {
		return -1
	}
	return col
}

// innerHashJoin joins current rows with table ti by one of three steps:
// an index lookup onto ti's primary key (lookupKey), a build over ti's
// selection probed by current, or, when ti's selection is the larger
// side, a build over current that ti's selection streams past. All three
// emit the same rows in the same order. Without a connecting edge it is
// a cartesian product (rare; small sides only). stepEst is the
// planner's output estimate for this join step (negative when none).
func (e *Engine) innerHashJoin(b *binder, current *rowSet, ti int, filters []filterInfo, edges []joinEdge, joined map[int]bool, stepEst float64) *rowSet {
	probe, build := joinKeys(edges, joined, ti)
	verb, col := "probe", b.lookupKey(ti, probe, build, filters, current.n)
	var ht *hashTable
	switch {
	case len(probe) == 0:
		verb = "cartesian"
	case col < 0:
		if est := e.estimateFiltered(b, ti, filters); est > 2*float64(current.n) {
			return e.streamJoin(b, current, ti, probe, build, filters, stepEst)
		}
		ht = e.buildHashTable(b, ti, filters, probe, build)
	}
	sp := b.startStep(verb, ti, current.n, stepEst)
	defer b.qc.endOp(sp)
	ht, tf, all := b.joinSide(ti, col, ht, filters)
	pairs := b.joinMatches(ht, tf, all, b.keySources(current, probe), current.n)
	out := current.extend(b.qc, pairs, ti)
	b.qc.opRowsOut(sp, int64(out.n))
	return out
}

// startStep opens the profile node of a join step onto table ti.
func (b *binder) startStep(verb string, ti, rowsIn int, stepEst float64) *obs.Span {
	sp := b.qc.startOp(verb, b.tableAt(ti).binding)
	b.qc.opRowsIn(sp, int64(rowsIn))
	if stepEst >= 0 {
		b.qc.opEst(stepEst)
	}
	return sp
}

// joinSide completes the build side of a join step onto table ti: the
// engine's key index and ti's lookupFilter when lookupKey gave col ≥ 0,
// else ht when one was built, else ti's whole selection.
func (b *binder) joinSide(ti, col int, ht *hashTable, filters []filterInfo) (*hashTable, *tableFilter, []int32) {
	switch {
	case col >= 0:
		return &hashTable{ints: b.baseIndex(ti, col)}, b.lookupFilter(ti, filters), nil
	case ht != nil:
		return ht, nil, nil
	}
	sel := b.selection(ti, filters)
	b.readAll(sel)
	return nil, nil, sel.rowIDs()
}

// joinMatches returns the (row, match) pairs of the n intermediate rows
// in probe-major order: ht's matches for each row's key that pass tf,
// or, without ht, every row of all — a product that grows as it is
// emitted, each row's share charged as scratch first, so one too large
// to finish is cancelled early.
func (b *binder) joinMatches(ht *hashTable, tf *tableFilter, all []int32, ks []keySource, n int) []matchPair {
	// Room for one match per row: key joins match at most once, and
	// growing from nothing allocates twice the final size on the way.
	out := make([]matchPair, 0, n)
	var buf []byte
	matches := all
	for li := 0; li < n; li++ {
		if li%tickInterval == 0 || ht == nil {
			b.qc.checkNow()
		}
		if ht != nil {
			matches, buf = ht.probe(ks, int32(li), buf)
		} else {
			b.qc.growScratch(int64(len(all)) * matchPairBytes)
		}
		for _, r := range matches {
			out = append(out, matchPair{li: int32(li), r: r})
		}
	}
	if ht == nil {
		b.qc.shrinkScratch(int64(len(out)) * matchPairBytes)
	}
	return tf.keep(b.qc, batchLen, out)
}

// leftHashJoin outer-joins current rows with the lj table: a row without
// a match keeps id -1 for it, which every reader turns into NULLs. The
// table's matches come from an index lookup, a build over its selection,
// or, without an equality edge, the whole selection; the ON conditions
// beyond the edges then decide which of them join. Every current row
// emits its matches, or one NULL-extended row, in probe-major order.
func (e *Engine) leftHashJoin(b *binder, current *rowSet, lj leftJoin, filters []filterInfo) *rowSet {
	sp := b.startStep("left", lj.table, current.n, -1)
	defer b.qc.endOp(sp)
	var probe, build []*colExpr
	for _, ed := range lj.edges {
		probe = append(probe, ed.aCol)
		build = append(build, ed.bCol)
	}
	var ht *hashTable
	col := b.lookupKey(lj.table, probe, build, filters, current.n)
	if len(probe) > 0 && col < 0 {
		ht = e.buildHashTable(b, lj.table, filters, probe, build)
	}
	ht, tf, all := b.joinSide(lj.table, col, ht, filters)
	ks := b.keySources(current, probe)
	// ON conditions beyond the equi edges run over the candidate pairs as
	// a rowSet of their own: the joined tables through current's id
	// vectors, the outer table, which current has not joined, at the
	// candidate row.
	var on *tableFilter
	if len(lj.extra) > 0 {
		on = b.compileFilter(lj.extra)
	}
	matches := b.joinMatches(ht, tf, all, ks, current.n)
	var ok []int32 // the positions of the matches ON holds for
	if on != nil {
		cand := current.extend(b.qc, matches, lj.table)
		on.passing(b.qc, cand.n, batchLen, cand.ids, nil, func(sel []int32) { ok = append(ok, sel...) })
	}
	pairs := make([]matchPair, 0, current.n) // every row emits at least one pair
	j, k := 0, 0
	for li := 0; li < current.n; li++ {
		if li%tickInterval == 0 {
			b.qc.checkNow()
		}
		matched := false
		for ; j < len(matches) && matches[j].li == int32(li); j++ {
			if on != nil {
				if k == len(ok) || ok[k] != int32(j) {
					continue
				}
				k++
			}
			pairs = append(pairs, matches[j])
			matched = true
		}
		if !matched {
			pairs = append(pairs, matchPair{li: int32(li), r: -1})
		}
	}
	out := current.extend(b.qc, pairs, lj.table)
	b.qc.opRowsOut(sp, int64(out.n))
	return out
}

// scanFiltered emits table ti's selection as the driver rowSet, which
// takes the id vector over as its own. An unfiltered driver has no
// filter scan behind it: its identity vector is materialised here,
// under a scan node of its own, and charged to it on the way out.
func (e *Engine) scanFiltered(b *binder, ti int, filters []filterInfo) *rowSet {
	sel := b.selection(ti, filters)
	rs := &rowSet{n: sel.n, ids: make([][]int32, len(b.tables))}
	if sel.all {
		sp := b.qc.startOp("scan", b.tableAt(ti).binding)
		defer b.qc.endOp(sp)
		b.qc.opRowsIn(sp, int64(sel.n))
		b.qc.opRowsOut(sp, int64(sel.n))
		b.readAll(sel)
		defer rs.charge(b.qc, 0)
	}
	rs.ids[ti] = sel.rowIDs()
	return rs
}

// hashTable is a join build side: row ids keyed by join key, the row
// ids of a key in input order. Exactly one field is set: ints, the
// raw-int64 fast path for a single integer-class column on both sides,
// or strs, keyed on the GroupKey encoding.
type hashTable struct {
	ints *index.HashIndex
	strs map[string][]int32
}

// probe returns the build-side row ids matching the key of position i
// read through ks (nil on a NULL key: NULL never joins). buf is the
// caller's reusable key buffer, returned possibly grown.
func (h *hashTable) probe(ks []keySource, i int32, buf []byte) ([]int32, []byte) {
	if h.ints != nil {
		k, ok := ks[0].intAt(i)
		if !ok {
			return nil, buf
		}
		return h.ints.Lookup(k), buf
	}
	buf, ok := appendKey(ks, i, buf[:0])
	if !ok {
		return nil, buf
	}
	return h.strs[string(buf)], buf
}

// stagePairs reads the join key of every row of sel through key and
// keeps the (key, row id) pairs whose key is not NULL (NULL never
// joins), in selection order.
func stagePairs[K any](qc *qctx, sel *selection, key func(r int32) (K, bool)) (keys []K, rows []int32) {
	keys, rows = make([]K, 0, sel.n), make([]int32, 0, sel.n)
	for i := 0; i < sel.n; i++ {
		if i%tickInterval == 0 {
			qc.checkNow()
		}
		r := sel.at(i)
		if k, ok := key(r); ok {
			keys, rows = append(keys, k), append(rows, r)
		}
	}
	return keys, rows
}

// newHashTable hashes the rows of sel by the key read through ks; it
// returns the table and the number of rows hashed. The staged pairs are
// the build's dominant scratch (12 or 32 bytes a pair), dropped on
// return.
func newHashTable(qc *qctx, ks []keySource, intKeys bool, sel *selection) (*hashTable, int) {
	if intKeys {
		keys, rows := stagePairs(qc, sel, ks[0].intAt)
		qc.growScratch(int64(len(rows)) * 12)
		defer qc.shrinkScratch(int64(len(rows)) * 12)
		return &hashTable{ints: index.BuildHashIndexPairs(keys, rows)}, len(rows)
	}
	var buf []byte
	keys, rows := stagePairs(qc, sel, func(r int32) (key string, ok bool) {
		buf, ok = appendKey(ks, r, buf[:0])
		return string(buf), ok
	})
	qc.growScratch(int64(len(rows)) * 32)
	defer qc.shrinkScratch(int64(len(rows)) * 32)
	strs := make(map[string][]int32, len(keys))
	for i, k := range keys {
		strs[k] = append(strs[k], rows[i])
	}
	return &hashTable{strs: strs}, len(rows)
}

// baseIndex returns the engine's cached hash index on column col of
// table ti, or nil when the instance is not the catalog's base table (a
// CTE of the same name). A cold cache — first use, or maintenance changed
// the table — builds the index here, and that one read and hashing of
// the column goes on this query's counters.
func (b *binder) baseIndex(ti, col int) *index.HashIndex {
	inst := b.tableAt(ti)
	if b.eng.db.Table(inst.tab.Def.Name) != inst.tab {
		return nil
	}
	ix, built := b.eng.hashIndex(inst.tab, col)
	if built {
		b.qc.countScan(ix.NumRows())
		b.qc.countBuild(ix.NumRows())
	}
	return ix
}

// buildHashTable indexes table ti's selection by the build key columns,
// read straight off the column vectors. probe is consulted only to
// decide the key representation: a single integer-class column pair
// keys on raw int64 values (GroupKey keeps int and date keys disjoint,
// so the raw fast path is only taken when both sides share a class).
// An unfiltered base table on that path builds nothing: the engine's
// index on the column lists the same row ids in the same order.
func (e *Engine) buildHashTable(b *binder, ti int, filters []filterInfo, probe, build []*colExpr) *hashTable {
	inst := b.tableAt(ti)
	sel := b.selection(ti, filters)
	sp := b.startStep("build", ti, sel.n, -1)
	defer b.qc.endOp(sp)
	intKeys := intJoinKey(probe, build)
	if intKeys && sel.all {
		if ix := b.baseIndex(ti, build[0].off-inst.offset); ix != nil {
			b.qc.opRowsOut(sp, int64(sel.n))
			return &hashTable{ints: ix}
		}
	}
	b.readAll(sel)
	ht, built := newHashTable(b.qc, b.keySources(nil, build), intKeys, sel)
	b.qc.countBuild(built)
	b.qc.opRowsOut(sp, int64(built))
	return ht
}

// streamJoin hashes the (smaller) current intermediate result and
// streams table ti's selection past it — the build-on-smaller-side
// branch of the hash pipeline.
//
// Output order is probe-major — current rows ascending, matching table
// rows ascending within each — exactly the order a probe produces.
// That makes the build-side choice (and the runtime threshold behind
// it) invisible in the output, which the planner's join-order search
// depends on: any plan property may vary with estimates except row
// order. The streamed side therefore collects (li, r) match pairs
// (r-ascending) and a stable counting sort on li puts them in
// probe-major order.
func (e *Engine) streamJoin(b *binder, current *rowSet, ti int, probe, build []*colExpr, filters []filterInfo, stepEst float64) *rowSet {
	sel := b.selection(ti, filters)
	sp := b.startStep("stream", ti, sel.n, stepEst)
	defer b.qc.endOp(sp)
	b.readAll(sel)
	// The build side is the current intermediate: its positions keyed by
	// the probe columns read through the id vectors.
	ht, built := newHashTable(b.qc, b.keySources(current, probe), intJoinKey(probe, build), &selection{n: current.n, all: true})
	b.qc.countBuild(built)
	// Keys of the streamed rows come straight off the table's vectors;
	// survivors that probe nothing cost one table miss.
	bks := b.keySources(nil, build)
	var pairs []matchPair
	var buf []byte
	var lis []int32
	for i := 0; i < sel.n; i++ {
		if i%tickInterval == 0 {
			b.qc.checkNow()
		}
		r := sel.at(i)
		lis, buf = ht.probe(bks, r, buf)
		for _, li := range lis {
			pairs = append(pairs, matchPair{li: li, r: r})
		}
	}
	out := current.extend(b.qc, sortPairsByLeft(pairs, current.n), ti)
	b.qc.opRowsOut(sp, int64(out.n))
	return out
}
