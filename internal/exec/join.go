package exec

import (
	"fmt"

	"tpcds/internal/plan"
	"tpcds/internal/sql"
	"tpcds/internal/storage"
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
// expression reads them). The join order comes from the active planner
// — the greedy heuristic, or the cost-based search with its plan cache
// — and the star-vs-hash choice from the plan package. Either way the
// emitted rows are bit-identical: planning may change cost, never
// results. The returned trace belongs to this call alone, so concurrent
// streams never see each other's plans.
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

	planned := plan.Cached{Order: gOrder, Source: "greedy"}
	costBased := e.planner == plan.CostBased
	if costBased {
		var hit bool
		planned, hit = e.costPlan(b, stmt, filters, edges, isLeft, driver, gOrder, connected)
		tr.PlanSource = planned.Source
		if hit {
			tr.PlanSource = "cache:" + planned.Source
		}
		tr.EstBaseRows = planned.EstRows
	} else {
		tr.PlanSource = "greedy"
	}

	if shape, fact, dims, ok := e.starShape(b, filters, edges, lefts, &tr); ok {
		var decision plan.Decision
		if costBased {
			decision = plan.ChooseCost(shape, planned.Cost, e.mode)
		} else {
			decision = plan.Choose(shape, e.mode)
		}
		e.setDecision(decision)
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

// estimateFiltered estimates the filtered cardinality of a table. With
// statistics enabled (the default), analyzable predicates use NDV and
// min/max stats; other predicates — and everything when statistics are
// disabled — use the plan package's fixed heuristics.
func (e *Engine) estimateFiltered(b *binder, ti int, filters []filterInfo) float64 {
	est := float64(b.tableAt(ti).tab.NumRows())
	for _, f := range filters {
		if f.table != ti {
			continue
		}
		sel := -1.0
		if !e.useHeuristicsOnly && f.hintOK {
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
// Both planners produce orders satisfying the probe-major order
// invariant, so execution needs no knowledge of which one planned.
// stepEst carries the cost planner's per-step output estimates aligned
// with order (stepEst[k] estimates the intermediate cardinality after
// joining order[k]); nil under the greedy planner. Estimates feed only
// the profile — execution never branches on them.
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

// applyResidual drops the rows failing a cross-table predicate, each
// gathered into one scratch row for evaluation.
func (b *binder) applyResidual(rs *rowSet, residual []bexpr) {
	if len(residual) == 0 {
		return
	}
	ks, row := b.keySources(rs, exprCols(residual...)), make([]storage.Value, b.total)
	rs.filter(func(i int) bool {
		b.qc.tick()
		gather(ks, int32(i), -1, row)
		return passes(residual, row)
	})
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

// innerHashJoin joins current rows with table ti. stepEst is the
// planner's output estimate for this join step (negative when none).
func (e *Engine) innerHashJoin(b *binder, current *rowSet, ti int, filters []filterInfo, edges []joinEdge, joined map[int]bool, stepEst float64, tr *Trace) *rowSet {
	probe, build := joinKeys(edges, joined, ti)
	if len(probe) == 0 {
		// No connecting edge: cartesian product (rare; small sides only).
		sp := b.qc.startOp("cartesian", b.tableAt(ti).binding)
		b.qc.opRowsIn(sp, int64(current.n))
		if stepEst >= 0 {
			b.qc.opEst(stepEst)
		}
		defer b.qc.endOp(sp)
		sel := b.selection(ti, filters, tr)
		b.readAll(sel)
		pairs := make([]matchPair, 0, current.n*sel.n)
		for li := 0; li < current.n; li++ {
			for i := 0; i < sel.n; i++ {
				b.qc.tick()
				pairs = append(pairs, matchPair{li: int32(li), r: sel.at(i)})
			}
		}
		out := current.extend(b.qc, pairs, ti)
		b.qc.opRowsOut(sp, int64(out.n))
		return out
	}
	// Build on the smaller side: when the new table is much larger than
	// the current intermediate result (a huge dimension probed by a
	// filtered fact), hash the current rows instead and stream the big
	// table past them.
	if est := e.estimateFiltered(b, ti, filters); est > 2*float64(current.n) {
		return e.streamJoin(b, current, ti, probe, build, filters, stepEst, tr)
	}
	ht := e.buildHashTable(b, ti, filters, probe, build, tr)
	return e.probeJoin(b, current, ti, probe, ht, stepEst, tr)
}

// leftHashJoin outer-joins current rows with the lj table: a row without
// a match keeps id -1 for it, which every reader turns into NULLs. The
// probe side runs in morsels over current (each probe row is
// independent; morsel-order concatenation keeps the serial output
// order).
func (e *Engine) leftHashJoin(b *binder, current *rowSet, lj leftJoin, filters []filterInfo, tr *Trace) *rowSet {
	sp := b.qc.startOp("left", b.tableAt(lj.table).binding)
	b.qc.opRowsIn(sp, int64(current.n))
	defer b.qc.endOp(sp)
	var probe, build []*colExpr
	for _, ed := range lj.edges {
		probe = append(probe, ed.aCol)
		build = append(build, ed.bCol)
	}
	var allIDs []int32
	var ht *hashTable
	if len(probe) == 0 {
		sel := b.selection(lj.table, filters, tr)
		b.readAll(sel)
		allIDs = sel.rowIDs()
	} else {
		ht = e.buildHashTable(b, lj.table, filters, probe, build, tr)
	}
	ks := b.keySources(current, probe)
	// ON conditions beyond the equi edges read the joined tables through
	// current's id vectors, and the outer table, which current has not
	// joined, at the candidate row.
	cols := b.keySources(current, exprCols(lj.extra...))
	pairs := collectMorsels(e, b.qc, current.n, tr, func(lo, hi int) []matchPair {
		out := make([]matchPair, 0, hi-lo) // every row emits at least one pair
		var buf []byte
		var row []storage.Value
		if len(lj.extra) > 0 {
			row = make([]storage.Value, b.total)
		}
		for li := lo; li < hi; li++ {
			if li%tickInterval == 0 {
				b.qc.checkNow()
			}
			candidates := allIDs
			if ht != nil {
				candidates, buf = ht.probe(ks, int32(li), buf)
			}
			matched := false
			for _, r := range candidates {
				if row != nil {
					gather(cols, int32(li), r, row)
					if !passes(lj.extra, row) {
						continue
					}
				}
				out = append(out, matchPair{li: int32(li), r: r})
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
