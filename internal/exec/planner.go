package exec

import (
	"fmt"
	"sort"
	"strings"

	"tpcds/internal/plan"
	"tpcds/internal/schema"
	"tpcds/internal/sql"
	"tpcds/internal/storage"
)

// The planner's executor-side half: it derives the greedy baseline
// order (also the join order of the tests' rewrite-free reference),
// classifies which tables the join-order search may move, builds the
// statistics-backed join graph, and memoizes the resulting plan.
//
// Order-safety invariant. The join pipeline emits rows probe-major at
// every step, so the final base-row order is a lexicographic sort by
// (driver row, then the rows of each row-expanding join in execution
// sequence). Three constraints keep that order independent of the
// chosen plan: the driver never changes, tables that can match more
// than one build row ("pinned") keep the baseline's relative order,
// and every placement must be edge-connected (a cartesian step would
// interleave an unrelated table's row ids into the sort). Tables whose
// join keys are provably unique ("free") match at most one row — they
// filter, never branch — and may be placed anywhere connected. The
// planned-vs-reference differential test over all 99 templates
// enforces the invariant end to end.

// greedyJoinOrder computes the baseline join order without executing
// it: the same decisions the greedy pipeline has always made (largest
// estimated fact drives, then the smallest-estimate connected table
// joins next), factored out so the search and the reference share one
// definition.
// Ties break toward the lower table index, making the order fully
// deterministic. connected reports whether every step had a join edge
// into the already-joined set — false means the baseline itself
// contains a cartesian placement and reordering is unsafe.
//
// Decorrelation-synthesized CTEs (plan.DecorrPrefix) are kept out of
// driver selection: the rewrite must never change the driver, or the
// output row order would differ from the undecorrelated plan.
func (e *Engine) greedyJoinOrder(b *binder, filters []filterInfo, edges []joinEdge, isLeft map[int]bool) (driver int, order []int, connected bool) {
	pick := func(allowSynth bool) int {
		d := -1
		var dEst float64
		dFact := false
		for ti := range b.tables {
			if isLeft[ti] {
				continue
			}
			if !allowSynth && strings.HasPrefix(b.tables[ti].binding, plan.DecorrPrefix) {
				continue
			}
			isFact := b.tables[ti].tab.Def.Kind == schema.Fact
			est := e.estimateFiltered(b, ti, filters)
			if d < 0 || (isFact && !dFact) || (isFact == dFact && est > dEst) {
				d, dEst, dFact = ti, est, isFact
			}
		}
		return d
	}
	driver = pick(false)
	if driver < 0 {
		driver = pick(true)
	}
	if driver < 0 {
		return -1, nil, false
	}

	order = []int{driver}
	joined := map[int]bool{driver: true}
	remaining := 0
	isRemaining := make([]bool, len(b.tables))
	for ti := range b.tables {
		if ti != driver && !isLeft[ti] {
			isRemaining[ti] = true
			remaining++
		}
	}
	connected = true
	for remaining > 0 {
		next := -1
		var nextEst float64
		nextConnected := false
		for ti := range b.tables {
			if !isRemaining[ti] {
				continue
			}
			conn := false
			for _, ed := range edges {
				if (joined[ed.aTbl] && ed.bTbl == ti) || (joined[ed.bTbl] && ed.aTbl == ti) {
					conn = true
					break
				}
			}
			est := e.estimateFiltered(b, ti, filters)
			if next < 0 || (conn && !nextConnected) ||
				(conn == nextConnected && est < nextEst) {
				next, nextEst, nextConnected = ti, est, conn
			}
		}
		if !nextConnected {
			connected = false
		}
		isRemaining[next] = false
		remaining--
		joined[next] = true
		order = append(order, next)
	}
	return driver, order, connected
}

// classifyFree marks the tables the join-order search may move: every
// join edge incident to the table must have a provably unique key on
// the table's side (statistics: distinct == non-null), so joining it
// can only filter the intermediate result, never expand it.
func (e *Engine) classifyFree(b *binder, edges []joinEdge, isLeft map[int]bool) []bool {
	free := make([]bool, len(b.tables))
	for ti := range b.tables {
		if isLeft[ti] {
			continue
		}
		inst := &b.tables[ti]
		incident, unique := false, true
		for _, ed := range edges {
			var c *colExpr
			switch {
			case ed.aTbl == ti && !isLeft[ed.bTbl]:
				c = ed.aCol
			case ed.bTbl == ti && !isLeft[ed.aTbl]:
				c = ed.bCol
			default:
				continue
			}
			incident = true
			if !e.uniqueKey(b.qc, inst.tab, c.off-inst.offset) {
				unique = false
				break
			}
		}
		free[ti] = incident && unique
	}
	return free
}

// buildJoinGraph assembles the plan package's statistics view of the
// query: per-table filtered-cardinality estimates and join-column NDVs.
// Table indexes equal binder indexes; edges touching left-joined tables
// are excluded (left joins run after the inner pipeline, in declaration
// order, and are not searchable).
func (e *Engine) buildJoinGraph(b *binder, filters []filterInfo, edges []joinEdge, isLeft map[int]bool) plan.Graph {
	g := plan.Graph{Tables: make([]plan.TableCard, len(b.tables))}
	for ti := range b.tables {
		g.Tables[ti] = plan.TableCard{
			Name: b.tables[ti].binding,
			Rows: b.tables[ti].tab.NumRows(),
			Est:  e.estimateFiltered(b, ti, filters),
		}
	}
	for _, ed := range edges {
		if isLeft[ed.aTbl] || isLeft[ed.bTbl] {
			continue
		}
		g.Edges = append(g.Edges, plan.Edge{
			A: ed.aTbl, B: ed.bTbl,
			NDVA: e.edgeNDV(b, ed.aTbl, ed.aCol),
			NDVB: e.edgeNDV(b, ed.bTbl, ed.bCol),
		})
	}
	return g
}

// edgeNDV returns the distinct-value count of a join column, or 0 when
// unknown (the cost model then assumes a key join).
func (e *Engine) edgeNDV(b *binder, ti int, c *colExpr) float64 {
	inst := &b.tables[ti]
	st := e.columnStats(b.qc, inst.tab, c.off-inst.offset)
	if st.valid {
		return float64(st.distinct)
	}
	return 0
}

// planKey builds the plan-cache key. Beyond the statement shape
// (literals collapsed, IN-list lengths kept) it folds in everything
// the cached decision is conditioned on: the forced mode, the greedy
// baseline order, and the free-set classification. That makes entries
// self-validating — a literal change that shifts estimates enough to
// change the baseline produces a different key and a fresh plan, so a
// cached order is always order-safe for the execution that looks it
// up.
func (e *Engine) planKey(stmt *sql.SelectStmt, gOrder []int, free []bool) string {
	var mask uint64
	for ti, f := range free {
		if f {
			mask |= 1 << uint(ti)
		}
	}
	return fmt.Sprintf("%s|m%d|g%v|f%x", plan.Fingerprint(stmt, false), e.mode, gOrder, mask)
}

// planReads lists the versions of the catalog tables a block reads, in
// binding order, for the plan cache. A CTE-backed table stays out: a
// fresh materialization has a fresh id, and its plan would never hit.
func (e *Engine) planReads(b *binder) []plan.Version {
	var reads []plan.Version
	for ti := range b.tables {
		if t := b.tables[ti].tab; e.db.Table(t.Def.Name) == t {
			reads = append(reads, plan.Version{ID: t.ID(), Epoch: t.Epoch()})
		}
	}
	return reads
}

// scopeSig renders the identity of every CTE table in scope, sorted by
// name. Two statement fingerprints only denote the same computation
// when the tables their names resolve to are the same instances; the
// signature makes the CSE and plan-stat keys instance-precise.
func scopeSig(ctes map[string]*storage.Table) string {
	var names []string
	for k := range ctes {
		names = append(names, k)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		fmt.Fprintf(&sb, "|%s=%d", n, ctes[n].ID())
	}
	return sb.String()
}

// costPlan produces the cost-based join plan for one select block,
// consulting the plan cache first. fromCache reports a cache hit.
func (e *Engine) costPlan(b *binder, stmt *sql.SelectStmt, filters []filterInfo, edges []joinEdge, isLeft map[int]bool, driver int, gOrder []int, connected bool) (plan.Cached, bool) {
	b.qc.startOp("plan", "")
	defer b.qc.endOp()
	free := e.classifyFree(b, edges, isLeft)
	key, reads := e.planKey(stmt, gOrder, free), e.planReads(b)
	if c, ok := e.planCache.Get(key, reads); ok {
		b.qc.planCacheHits++
		return c, true
	}
	b.qc.planCacheMisses++
	var pinned, freeList []int
	for _, ti := range gOrder[1:] {
		if free[ti] {
			freeList = append(freeList, ti)
		} else {
			pinned = append(pinned, ti)
		}
	}
	g := e.buildJoinGraph(b, filters, edges, isLeft)
	jp := plan.Search(plan.SearchInput{
		Graph:           g,
		Driver:          driver,
		Pinned:          pinned,
		Free:            freeList,
		GreedyOrder:     gOrder,
		GreedyConnected: connected,
	})
	c := plan.Cached{Order: jp.Order, Cost: jp.Cost, EstRows: jp.EstRows, Source: jp.Source}
	e.planCache.Put(key, c, reads)
	return c, false
}
