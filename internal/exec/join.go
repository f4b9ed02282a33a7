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
		Strategy:    plan.HashJoinPipeline,
		Tables:      e.buildTableTraces(b, filters),
		Parallelism: e.workers(),
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
		rows, order := e.executeJoinOrder(b, gOrder, nil, filters, edges, residual, lefts, &tr)
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

	if shape, fact, dims, ok := e.starShape(b, filters, edges, lefts, &tr); ok {
		decision := plan.ChooseCost(shape, planned.Cost, e.mode)
		tr.Decision = decision
		if decision.Strategy == plan.StarTransform {
			starEst := shape.CombinedSelectivity() * float64(shape.FactRows)
			rows, ok := e.runStar(b, filters, residual, fact, dims, starEst, &tr)
			if ok {
				tr.Strategy = plan.StarTransform
				tr.JoinOrder = []string{shape.FactName + " (bitmap-driven)"}
				tr.BaseRows = rows.n
				return rows, tr, nil
			}
		}
	}
	rows, order := e.executeJoinOrder(b, planned.Order, planned.StepEst, filters, edges, residual, lefts, &tr)
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
func (e *Engine) executeJoinOrder(b *binder, order []int, stepEst []float64, filters []filterInfo, edges []joinEdge, residual []bexpr, lefts []leftJoin, tr *Trace) (*rowSet, []string) {
	if len(order) == 0 {
		panic("exec: empty join order")
	}
	driver := order[0]
	current := e.scanFiltered(b, driver, filters, tr)
	joined := map[int]bool{driver: true}
	desc := []string{b.tableAt(driver).binding + " (driver)"}
	for k, ti := range order[1:] {
		est := -1.0
		if s := k + 1; s >= 0 && s < len(stepEst) {
			est = stepEst[s]
		}
		current = e.innerHashJoin(b, current, ti, filters, edges, joined, est, tr)
		joined[ti] = true
		desc = append(desc, b.tableAt(ti).binding)
	}
	// LEFT OUTER joins, in declaration order.
	for _, lj := range lefts {
		current = e.leftHashJoin(b, current, lj, filters, tr)
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
		b.compileFilter(residual).passing(b.qc, rs.n, b.eng.batchSize(), rs.ids, nil, func(sel []int32) { w = rs.keep(w, sel) })
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
func (e *Engine) innerHashJoin(b *binder, current *rowSet, ti int, filters []filterInfo, edges []joinEdge, joined map[int]bool, stepEst float64, tr *Trace) *rowSet {
	probe, build := joinKeys(edges, joined, ti)
	verb, col := "probe", b.lookupKey(ti, probe, build, filters, current.n)
	var ht *hashTable
	switch {
	case len(probe) == 0:
		verb = "cartesian"
	case col < 0:
		if est := e.estimateFiltered(b, ti, filters); est > 2*float64(current.n) {
			return e.streamJoin(b, current, ti, probe, build, filters, stepEst, tr)
		}
		ht = e.buildHashTable(b, ti, filters, probe, build, tr)
	}
	sp := b.startStep(verb, ti, current.n, stepEst)
	defer b.qc.endOp(sp)
	ht, tf, all := b.joinSide(ti, col, ht, filters, tr)
	ks := b.keySources(current, probe)
	pairs := collectMorsels(e, b.qc, current.n, tr, func(lo, hi int) []matchPair {
		return b.joinMatches(ht, tf, all, ks, lo, hi)
	})
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
func (b *binder) joinSide(ti, col int, ht *hashTable, filters []filterInfo, tr *Trace) (*hashTable, *tableFilter, []int32) {
	switch {
	case col >= 0:
		return &hashTable{ints: []*index.HashIndex{b.baseIndex(ti, col)}}, b.lookupFilter(ti, filters, tr), nil
	case ht != nil:
		return ht, nil, nil
	}
	sel := b.selection(ti, filters, tr)
	b.readAll(sel)
	return nil, nil, sel.rowIDs()
}

// joinMatches returns the (row, match) pairs of intermediate rows
// [lo, hi) in probe-major order, the serial output order: ht's matches
// for each row's key that pass tf, or, without ht, every row of all — a
// product that grows as it is emitted, each row's share charged as
// scratch first, so one too large to finish is cancelled early.
func (b *binder) joinMatches(ht *hashTable, tf *tableFilter, all []int32, ks []keySource, lo, hi int) []matchPair {
	// Room for one match per row: key joins match at most once, and
	// growing from nothing allocates twice the final size on the way.
	out := make([]matchPair, 0, hi-lo)
	var buf []byte
	matches := all
	for li := lo; li < hi; li++ {
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
	return tf.keep(b.qc, b.eng.batchSize(), out)
}

// leftHashJoin outer-joins current rows with the lj table: a row without
// a match keeps id -1 for it, which every reader turns into NULLs. The
// table's matches come from an index lookup, a build over its selection,
// or, without an equality edge, the whole selection; the ON conditions
// beyond the edges then decide which of them join. The probe side runs
// in morsels over current (each probe row is independent; morsel-order
// concatenation keeps the serial output order).
func (e *Engine) leftHashJoin(b *binder, current *rowSet, lj leftJoin, filters []filterInfo, tr *Trace) *rowSet {
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
		ht = e.buildHashTable(b, lj.table, filters, probe, build, tr)
	}
	ht, tf, all := b.joinSide(lj.table, col, ht, filters, tr)
	ks := b.keySources(current, probe)
	// ON conditions beyond the equi edges run over the candidate pairs as
	// a rowSet of their own: the joined tables through current's id
	// vectors, the outer table, which current has not joined, at the
	// candidate row.
	var on *tableFilter
	if len(lj.extra) > 0 {
		on = b.compileFilter(lj.extra)
	}
	pairs := collectMorsels(e, b.qc, current.n, tr, func(lo, hi int) []matchPair {
		matches := b.joinMatches(ht, tf, all, ks, lo, hi)
		var ok []int32 // the positions of the matches ON holds for
		if on != nil {
			cand := current.extend(b.qc, matches, lj.table)
			on.passing(b.qc, cand.n, b.eng.batchSize(), cand.ids, nil, func(sel []int32) { ok = append(ok, sel...) })
		}
		out := make([]matchPair, 0, hi-lo) // every row emits at least one pair
		j, k := 0, 0
		for li := lo; li < hi; li++ {
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
				out = append(out, matches[j])
				matched = true
			}
			if !matched {
				out = append(out, matchPair{li: int32(li), r: -1})
			}
		}
		return out
	})
	out := current.extend(b.qc, pairs, lj.table)
	b.qc.opRowsOut(sp, int64(out.n))
	return out
}
