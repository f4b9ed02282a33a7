package exec

import (
	"context"
	"fmt"
	"slices"

	"tpcds/internal/plan"
	"tpcds/internal/schema"
	"tpcds/internal/sql"
	"tpcds/internal/storage"
)

// Query parses and executes one SELECT statement. Internal panics are
// converted to errors: one malformed query must not take down the
// benchmark's concurrent streams.
func (e *Engine) Query(q string) (*Result, error) {
	// The context-free form is deliberate database/sql-style API surface:
	// a root context here means "no deadline", exactly what the caller
	// asked for by not passing one.
	//lint:ignore ctxflow Query is the documented context-free convenience wrapper over QueryContext
	return e.QueryContext(context.Background(), q)
}

// QueryContext executes one SELECT statement under a cancellation
// context. A cancelled or expired context aborts the query between
// operator steps (serial loops poll every tickInterval rows; morsel
// workers check between morsels and drain cleanly) and the error wraps
// ctx.Err(), so errors.Is(err, context.DeadlineExceeded) reports a
// per-query timeout.
func (e *Engine) QueryContext(ctx context.Context, q string) (*Result, error) {
	res, _, err := e.QueryTracedContext(ctx, q)
	return res, err
}

// QueryTraced executes one SELECT statement and returns the execution
// trace of its outermost block alongside the result. Unlike LastTrace
// the returned trace belongs to this call, so concurrent streams get
// their own traces.
func (e *Engine) QueryTraced(q string) (*Result, Trace, error) {
	//lint:ignore ctxflow QueryTraced is the documented context-free convenience wrapper over QueryTracedContext
	return e.QueryTracedContext(context.Background(), q)
}

// QueryTracedContext is QueryTraced under a cancellation context.
func (e *Engine) QueryTracedContext(ctx context.Context, q string) (res *Result, tr Trace, err error) {
	qc := e.newQctx(ctx)
	defer func() {
		if r := recover(); r != nil {
			res, tr = nil, Trace{}
			err = queryError(q, recoveredError(qc, r))
		}
	}()
	if hook := e.queryHook; hook != nil {
		hook(q)
	}
	qc.checkNow()
	stmt, err := sql.Parse(q)
	if err != nil {
		return nil, Trace{}, queryError(q, err)
	}
	stmt = e.rewrite(qc, stmt)
	res, _, tr, err = e.runStatement(qc, stmt, nil)
	if err != nil {
		return nil, Trace{}, queryError(q, err)
	}
	tr.Decorrelated = qc.decorrelated
	tr.CSEHits = qc.cseHits
	tr.Profile = qc.profile()
	e.setTrace(tr)
	return res, tr, nil
}

// rewrite applies the cost planner's statement rewrites (IN-subquery
// decorrelation) ahead of execution. Copy-on-write: the caller's AST
// is never mutated, so RunContext callers keep a pristine statement.
func (e *Engine) rewrite(qc *qctx, stmt *sql.SelectStmt) *sql.SelectStmt {
	if e.planner != plan.CostBased {
		return stmt
	}
	out, n := plan.Decorrelate(stmt)
	qc.decorrelated = n
	return out
}

// Run executes an already parsed statement.
func (e *Engine) Run(stmt *sql.SelectStmt) (*Result, error) {
	//lint:ignore ctxflow Run is the documented context-free convenience wrapper over RunContext
	return e.RunContext(context.Background(), stmt)
}

// RunContext executes an already parsed statement under a cancellation
// context, with the same panic-to-error hardening as QueryContext.
func (e *Engine) RunContext(ctx context.Context, stmt *sql.SelectStmt) (res *Result, err error) {
	qc := e.newQctx(ctx)
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = fmt.Errorf("exec: %w", recoveredError(qc, r))
		}
	}()
	qc.checkNow()
	res, _, tr, err := e.runStatement(qc, e.rewrite(qc, stmt), nil)
	if err == nil {
		tr.Decorrelated = qc.decorrelated
		tr.CSEHits = qc.cseHits
		tr.Profile = qc.profile()
		e.setTrace(tr)
	}
	return res, err
}

// recoveredError converts a recovered panic into the query's error: the
// cancellation sentinel becomes the context error (preserving
// errors.Is against context.Canceled / context.DeadlineExceeded), and
// anything else — a storage or exec invariant violation — becomes an
// internal error tagged with the operator phase that raised it.
func recoveredError(qc *qctx, r any) error {
	if cp, ok := r.(cancelPanic); ok {
		return cp.err
	}
	return fmt.Errorf("internal error in %s: %v", qc.phaseName(), r)
}

// runStatement materializes WITH clauses, dispatches union chains, and
// runs the head select. It returns the result, per-column types (for
// CTE materialization), and the trace of the head block (CTE and
// subquery traces stay local to their execution).
func (e *Engine) runStatement(qc *qctx, stmt *sql.SelectStmt, outer map[string]*storage.Table) (*Result, []schema.Type, Trace, error) {
	ctes := map[string]*storage.Table{}
	for k, v := range outer {
		ctes[k] = v
	}
	for _, cte := range stmt.With {
		qc.checkNow()
		tab, err := e.materializeCTE(qc, cte, ctes)
		if err != nil {
			return nil, nil, Trace{}, fmt.Errorf("WITH %s: %w", cte.Name, err)
		}
		ctes[cte.Name] = tab
	}
	if stmt.UnionAll != nil {
		return e.runUnion(qc, stmt, ctes)
	}
	return e.runSelect(qc, stmt, ctes)
}

// materializeCTE evaluates one CTE body into a storage table. Under
// the cost planner, identical bodies in identical CTE scopes are
// evaluated once per query: the memo key is the literal-preserving
// statement fingerprint plus the identity of every table in scope, so
// a repeated subquery block (the classic TPC-DS "with ... as" reuse
// pattern) shares both the evaluation and — because statistics are
// keyed by table instance — the gathered statistics.
func (e *Engine) materializeCTE(qc *qctx, cte sql.CTE, ctes map[string]*storage.Table) (*storage.Table, error) {
	sp := qc.startOp("cte", cte.Name)
	defer qc.endOp(sp)
	key := ""
	if e.planner == plan.CostBased {
		key = "cte|" + plan.Fingerprint(cte.Select, true) + scopeSig(ctes)
		if ent, ok := qc.cse[key]; ok && ent.tab != nil {
			qc.countCSEHit()
			// Memo hit: the node stays a leaf (no nested operator work),
			// which is exactly what CSE reuse looks like in the profile.
			qc.opRowsOut(sp, int64(ent.tab.NumRows()))
			return ent.tab, nil
		}
	}
	res, types, _, err := e.runStatement(qc, cte.Select, ctes)
	if err != nil {
		return nil, err
	}
	tab, err := materialize(cte.Name, res, types)
	if err != nil {
		return nil, err
	}
	qc.opRowsOut(sp, int64(tab.NumRows()))
	if key != "" {
		if qc.cse == nil {
			qc.cse = map[string]cseEntry{}
		}
		qc.cse[key] = cseEntry{res: res, types: types, tab: tab}
	}
	return tab, nil
}

// materialize turns a query result into an anonymous storage table so
// CTEs can be referenced like base tables.
func materialize(name string, res *Result, types []schema.Type) (*storage.Table, error) {
	def := &schema.Table{Name: name, Kind: schema.Dimension}
	seen := map[string]bool{}
	for i, col := range res.Columns {
		cname := col
		for seen[cname] {
			cname = fmt.Sprintf("%s_%d", col, i)
		}
		seen[cname] = true
		t := schema.Char
		if i < len(types) {
			t = types[i]
		}
		def.Columns = append(def.Columns, schema.Column{Name: cname, Type: t, Nullable: true})
	}
	def.PrimaryKey = []string{def.Columns[0].Name}
	tab := storage.NewTable(def)
	for _, row := range res.Rows {
		tab.Append(row)
	}
	return tab, nil
}

// runUnion executes a UNION ALL chain; ORDER BY / LIMIT of the head
// apply to the concatenated result and may only reference output columns
// by name or ordinal. The returned trace is the first block's (the
// head's FROM clause).
func (e *Engine) runUnion(qc *qctx, head *sql.SelectStmt, ctes map[string]*storage.Table) (*Result, []schema.Type, Trace, error) {
	var out *Result
	var types []schema.Type
	var headTrace Trace
	orderBy := head.OrderBy
	limit := head.Limit
	offset := head.Offset
	for cur := head; cur != nil; cur = cur.UnionAll {
		qc.checkNow()
		block := *cur
		block.OrderBy = nil
		block.Limit = -1
		block.Offset = 0
		block.UnionAll = nil
		block.With = nil
		res, ts, tr, err := e.runSelect(qc, &block, ctes)
		if err != nil {
			return nil, nil, Trace{}, err
		}
		if out == nil {
			out, types, headTrace = res, ts, tr
			continue
		}
		if len(res.Columns) != len(out.Columns) {
			return nil, nil, Trace{}, fmt.Errorf("UNION ALL blocks have %d vs %d columns",
				len(out.Columns), len(res.Columns))
		}
		out.Rows = append(out.Rows, res.Rows...)
	}
	if len(orderBy) > 0 {
		keys := make([]int, len(orderBy))
		desc := make([]bool, len(orderBy))
		for i, oi := range orderBy {
			desc[i] = oi.Desc
			switch v := oi.Expr.(type) {
			case *sql.ColRef:
				found := -1
				for ci, c := range out.Columns {
					if c == v.Name {
						found = ci
						break
					}
				}
				if found < 0 {
					return nil, nil, Trace{}, fmt.Errorf("ORDER BY %s not in union output", v.Name)
				}
				keys[i] = found
			case *sql.Lit:
				if !v.IsInt || v.IntVal < 1 || int(v.IntVal) > len(out.Columns) {
					return nil, nil, Trace{}, fmt.Errorf("ORDER BY ordinal out of range")
				}
				keys[i] = int(v.IntVal) - 1
			default:
				return nil, nil, Trace{}, fmt.Errorf("ORDER BY over UNION ALL must use column names or ordinals")
			}
		}
		slices.SortStableFunc(out.Rows, func(a, b []storage.Value) int {
			for i, k := range keys {
				if c := storage.Compare(a[k], b[k]); c != 0 {
					if desc[i] {
						return -c
					}
					return c
				}
			}
			return 0
		})
	}
	if offset > 0 {
		if offset >= len(out.Rows) {
			out.Rows = nil
		} else {
			out.Rows = out.Rows[offset:]
		}
	}
	if limit >= 0 && len(out.Rows) > limit {
		out.Rows = out.Rows[:limit]
	}
	return out, types, headTrace, nil
}

// filterInfo records one bound single-table predicate with the AST
// shape used for selectivity estimation and, when the shape is
// analyzable (column vs literal), the statistics hint.
type filterInfo struct {
	table  int
	pred   bexpr
	kind   string
	hint   selHint
	hintOK bool
}

// joinEdge is an equality predicate between two table columns.
type joinEdge struct {
	aTbl, bTbl int
	aCol, bCol *colExpr // absolute offsets
}

// runSelect executes one plain SELECT block.
func (e *Engine) runSelect(qc *qctx, stmt *sql.SelectStmt, ctes map[string]*storage.Table) (*Result, []schema.Type, Trace, error) {
	qc.setPhase("bind")
	// Phase spans mirror setPhase. A phase abandoned by an error return
	// simply never completes — the tracer exports only finished spans,
	// so a failed query leaves a truncated (not corrupt) timeline.
	bindSp := qc.startOp("bind", "")
	b := newBinder(e, qc, ctes)
	for _, ref := range stmt.From {
		if err := b.addTable(ref); err != nil {
			return nil, nil, Trace{}, err
		}
	}
	// Rewrite ORDER BY aliases and ordinals to their select expressions.
	orderBy, err := rewriteOrderBy(stmt.OrderBy, stmt.Items)
	if err != nil {
		return nil, nil, Trace{}, err
	}

	// Registration pass: mark every column the query will read so scratch
	// rows gather only used columns. Post-join clauses are bound after
	// the joins ran, so this must happen first.
	for _, item := range stmt.Items {
		if item.Star {
			b.registerAll()
			break
		}
		b.registerColumns(item.Expr)
	}
	for _, g := range stmt.GroupBy {
		b.registerColumns(g)
	}
	if stmt.Having != nil {
		b.registerColumns(stmt.Having)
	}
	for _, oi := range orderBy {
		b.registerColumns(oi.Expr)
	}

	// Classify WHERE conjuncts.
	var filters []filterInfo
	var edges []joinEdge
	var residual []bexpr
	var constPreds []bexpr
	for _, c := range conjuncts(stmt.Where) {
		be, err := b.bind(c)
		if err != nil {
			return nil, nil, Trace{}, err
		}
		m := be.mask()
		switch popcount(m) {
		case 0:
			constPreds = append(constPreds, be)
		case 1:
			fi := filterInfo{table: bitIndex(m), pred: be, kind: predKind(c)}
			fi.hint, fi.hintOK = analyzeFilter(b, c, fi.table)
			filters = append(filters, fi)
		default:
			if edge, ok := asJoinEdge(be); ok {
				edges = append(edges, edge)
			} else {
				residual = append(residual, be)
			}
		}
	}
	// LEFT JOIN conditions: split into equi edges and extra conditions.
	var leftJoins []leftJoin
	for ti := range b.tables {
		if !b.tables[ti].leftJoin {
			continue
		}
		spec := leftJoin{table: ti}
		for _, c := range conjuncts(b.tables[ti].on) {
			be, err := b.bind(c)
			if err != nil {
				return nil, nil, Trace{}, err
			}
			if edge, ok := asJoinEdge(be); ok && (edge.aTbl == ti || edge.bTbl == ti) {
				if edge.bTbl != ti { // normalize: b side is the left-joined table
					edge.aTbl, edge.bTbl = edge.bTbl, edge.aTbl
					edge.aCol, edge.bCol = edge.bCol, edge.aCol
				}
				spec.edges = append(spec.edges, edge)
			} else {
				spec.extra = append(spec.extra, be)
			}
		}
		leftJoins = append(leftJoins, spec)
	}

	b.freeze()

	// Constant predicates: if any is false the result is empty.
	if !passes(constPreds, nil) {
		qc.endOp(bindSp)
		return e.projectEmpty(stmt, b, orderBy)
	}
	qc.endOp(bindSp)

	// Produce joined base rows.
	qc.setPhase("join")
	joinSp := qc.startOp("join", "")
	rows, tr, err := e.joinRows(b, stmt, filters, edges, residual, leftJoins)
	qc.endOp(joinSp)
	if err != nil {
		return nil, nil, Trace{}, err
	}

	aggregated := len(stmt.GroupBy) > 0 || stmt.Having != nil
	for _, item := range stmt.Items {
		if !item.Star && exprContainsAggregate(item.Expr) {
			aggregated = true
		}
	}
	for _, oi := range orderBy {
		if exprContainsAggregate(oi.Expr) {
			aggregated = true
		}
	}

	if aggregated {
		qc.setPhase("aggregate")
		aggSp := qc.startOp("aggregate", "")
		res, types, err := e.aggregate(stmt, b, rows, orderBy, &tr)
		qc.endOp(aggSp)
		return res, types, tr, err
	}
	qc.setPhase("project")
	projSp := qc.startOp("project", "")
	res, types, err := e.projectSimple(stmt, b, rows, orderBy, &tr)
	qc.endOp(projSp)
	return res, types, tr, err
}

// projectEmpty produces a zero-row result with the right output columns.
func (e *Engine) projectEmpty(stmt *sql.SelectStmt, b *binder, orderBy []sql.OrderItem) (*Result, []schema.Type, Trace, error) {
	aggregated := len(stmt.GroupBy) > 0 || stmt.Having != nil
	for _, item := range stmt.Items {
		if !item.Star && exprContainsAggregate(item.Expr) {
			aggregated = true
		}
	}
	var tr Trace
	none := &rowSet{ids: make([][]int32, len(b.tables))}
	if aggregated {
		res, types, err := e.aggregate(stmt, b, none, orderBy, &tr)
		return res, types, tr, err
	}
	res, types, err := e.projectSimple(stmt, b, none, orderBy, &tr)
	return res, types, tr, err
}

// projectSimple handles the non-aggregated path: project, DISTINCT,
// ORDER BY, LIMIT.
func (e *Engine) projectSimple(stmt *sql.SelectStmt, b *binder, rows *rowSet, orderBy []sql.OrderItem, tr *Trace) (*Result, []schema.Type, error) {
	var outCols []string
	var outTypes []schema.Type
	var projs []bexpr
	for _, item := range stmt.Items {
		if item.Star {
			for ti := range b.tables {
				inst := &b.tables[ti]
				for ci, col := range inst.tab.Def.Columns {
					outCols = append(outCols, col.Name)
					outTypes = append(outTypes, col.Type)
					projs = append(projs, &colExpr{off: inst.offset + ci, t: col.Type, tblBit: 1 << uint(ti)})
				}
			}
			continue
		}
		be, err := b.bind(item.Expr)
		if err != nil {
			return nil, nil, err
		}
		outCols = append(outCols, outputName(item))
		outTypes = append(outTypes, be.typ())
		projs = append(projs, be)
	}
	var sortKeys []bexpr
	for _, oi := range orderBy {
		be, err := b.bind(oi.Expr)
		if err != nil {
			return nil, nil, err
		}
		sortKeys = append(sortKeys, be)
	}
	src := rowSource{rr: b.rowReader(rows, maskOf(projs, sortKeys)), n: rows.n, width: b.total}
	res := e.finish(b.qc, src, projs, sortKeys, orderBy, stmt.Distinct, stmt.Limit, stmt.Offset, outCols, tr)
	return res, outTypes, nil
}

// finish evaluates projections and sort keys over the rows of src,
// applies DISTINCT, ORDER BY and LIMIT, and assembles the result.
// Evaluation runs in morsels (expressions are pure), each with its own
// gather row and carving its projection and sort key values out of one
// arena; DISTINCT dedup then walks the rows in order, so first-wins
// matches the serial pass.
func (e *Engine) finish(qc *qctx, src rowSource, projs, sortKeys []bexpr, orderBy []sql.OrderItem, distinct bool, limit, offset int, outCols []string, tr *Trace) *Result {
	type outRow struct {
		proj []storage.Value
		keys []storage.Value
	}
	n, np, width := src.n, len(projs), len(projs)+len(sortKeys)
	outs := make([]outRow, n)
	evalRange := func(lo, hi int) {
		scratch := make([]storage.Value, src.width)
		arena := make([]storage.Value, (hi-lo)*width)
		for i := lo; i < hi; i++ {
			if i%tickInterval == 0 {
				qc.checkNow()
			}
			row := src.row(i, scratch)
			vals := arena[:width:width]
			arena = arena[width:]
			for j, p := range projs {
				vals[j] = p.eval(row)
			}
			for j, k := range sortKeys {
				vals[np+j] = k.eval(row)
			}
			outs[i] = outRow{vals[:np:np], vals[np:]}
		}
	}
	morsel := e.morselSize()
	if workers := e.workers(); workers > 1 && n > morsel {
		tr.addWork(forEachMorsel(qc, workers, n, morsel, func(_, _, lo, hi int) { evalRange(lo, hi) }))
	} else {
		for lo := 0; lo < n; lo += morsel {
			evalRange(lo, min(lo+morsel, n))
		}
	}
	if distinct {
		seen := map[string]bool{}
		var key []byte
		w := 0
		for _, o := range outs {
			key = key[:0]
			for _, v := range o.proj {
				key = v.AppendGroupKey(key)
			}
			if seen[string(key)] {
				continue
			}
			seen[string(key)] = true
			outs[w] = o
			w++
		}
		outs = outs[:w]
	}
	if len(sortKeys) > 0 {
		sortSp := qc.startOp("sort", "")
		sortSp.SetAttrInt("rows", int64(len(outs)))
		qc.opRowsIn(nil, int64(len(outs)))
		qc.opRowsOut(nil, int64(len(outs)))
		slices.SortStableFunc(outs, func(a, b outRow) int {
			for i := range sortKeys {
				if c := storage.Compare(a.keys[i], b.keys[i]); c != 0 {
					if orderBy[i].Desc {
						return -c
					}
					return c
				}
			}
			return 0
		})
		qc.endOp(sortSp)
	}
	if offset > 0 {
		if offset >= len(outs) {
			outs = nil
		} else {
			outs = outs[offset:]
		}
	}
	if limit >= 0 && len(outs) > limit {
		outs = outs[:limit]
	}
	res := &Result{Columns: outCols, Rows: make([][]storage.Value, len(outs))}
	for i, o := range outs {
		res.Rows[i] = o.proj
	}
	return res
}

// rewriteOrderBy resolves select aliases (anywhere inside the sort
// expression) and top-level ordinals in ORDER BY.
func rewriteOrderBy(orderBy []sql.OrderItem, items []sql.SelectItem) ([]sql.OrderItem, error) {
	aliases := map[string]sql.Expr{}
	for _, item := range items {
		if item.Alias != "" && !item.Star {
			aliases[item.Alias] = item.Expr
		}
	}
	out := make([]sql.OrderItem, len(orderBy))
	for i, oi := range orderBy {
		out[i] = oi
		if v, ok := oi.Expr.(*sql.Lit); ok && v.Kind == sql.LitNumber && v.IsInt {
			n := int(v.IntVal)
			if n < 1 || n > len(items) {
				return nil, fmt.Errorf("ORDER BY ordinal %d out of range", n)
			}
			if items[n-1].Star {
				return nil, fmt.Errorf("ORDER BY ordinal cannot reference *")
			}
			out[i].Expr = items[n-1].Expr
			continue
		}
		out[i].Expr = substituteAliases(oi.Expr, aliases)
	}
	return out, nil
}

// substituteAliases replaces bare column references matching a select
// alias with the aliased expression, recursively. Qualified references
// and non-matching names pass through unchanged.
func substituteAliases(e sql.Expr, aliases map[string]sql.Expr) sql.Expr {
	if len(aliases) == 0 {
		return e
	}
	switch v := e.(type) {
	case *sql.ColRef:
		if v.Table == "" {
			if repl, ok := aliases[v.Name]; ok {
				return repl
			}
		}
		return v
	case *sql.BinOp:
		return &sql.BinOp{Op: v.Op,
			L: substituteAliases(v.L, aliases), R: substituteAliases(v.R, aliases)}
	case *sql.UnaryOp:
		return &sql.UnaryOp{Op: v.Op, X: substituteAliases(v.X, aliases)}
	case *sql.Between:
		return &sql.Between{X: substituteAliases(v.X, aliases),
			Lo: substituteAliases(v.Lo, aliases), Hi: substituteAliases(v.Hi, aliases), Not: v.Not}
	case *sql.IsNull:
		return &sql.IsNull{X: substituteAliases(v.X, aliases), Not: v.Not}
	case *sql.FuncCall:
		out := &sql.FuncCall{Name: v.Name, Distinct: v.Distinct, Star: v.Star}
		for _, a := range v.Args {
			out.Args = append(out.Args, substituteAliases(a, aliases))
		}
		return out
	case *sql.CaseExpr:
		out := &sql.CaseExpr{}
		for _, w := range v.Whens {
			out.Whens = append(out.Whens, sql.WhenClause{
				Cond:   substituteAliases(w.Cond, aliases),
				Result: substituteAliases(w.Result, aliases),
			})
		}
		if v.Else != nil {
			out.Else = substituteAliases(v.Else, aliases)
		}
		return out
	default:
		return e
	}
}

// predKind maps an AST predicate to the selectivity classes of
// plan.EstimateFilterSelectivity.
func predKind(e sql.Expr) string {
	switch v := e.(type) {
	case *sql.BinOp:
		if v.Op == "=" {
			return "eq"
		}
		if isComparison(v.Op) {
			return "range"
		}
	case *sql.In:
		return "in"
	case *sql.Between:
		return "between"
	case *sql.Like:
		return "like"
	case *sql.IsNull:
		return "isnull"
	}
	return "other"
}

// asJoinEdge recognizes a bound `col = col` predicate across two tables.
func asJoinEdge(be bexpr) (joinEdge, bool) {
	bin, ok := be.(*binExpr)
	if !ok || bin.op != "=" {
		return joinEdge{}, false
	}
	l, lok := bin.l.(*colExpr)
	r, rok := bin.r.(*colExpr)
	if !lok || !rok || l.tblBit == r.tblBit {
		return joinEdge{}, false
	}
	return joinEdge{
		aTbl: bitIndex(l.tblBit), bTbl: bitIndex(r.tblBit),
		aCol: l, bCol: r,
	}, true
}

func popcount(m uint64) int {
	n := 0
	for m != 0 {
		m &= m - 1
		n++
	}
	return n
}

func bitIndex(m uint64) int {
	i := 0
	for m > 1 {
		m >>= 1
		i++
	}
	return i
}
