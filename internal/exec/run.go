package exec

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

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
// operator steps (row loops poll every tickInterval rows, batch loops
// every batch) and the error wraps
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
func (e *Engine) QueryTracedContext(ctx context.Context, q string) (*Result, Trace, error) {
	return e.query(ctx, q, nil)
}

// query is the one path of every entry point: it runs the query hook,
// parses text unless stmt is given, and executes the rewritten
// statement. As the query ends — failed or not — a panic becomes the
// query's error and the query's record goes to the observers: its exec
// spans, the engine counters, and on success the trace.
func (e *Engine) query(ctx context.Context, text string, stmt *sql.SelectStmt) (res *Result, tr Trace, err error) {
	qc := e.newQctx(ctx)
	defer func() {
		if r := recover(); r != nil {
			err = recoveredError(qc, r)
		}
		qc.observe(e.metrics)
		if err != nil {
			res, tr, err = nil, Trace{}, queryError(text, err)
			return
		}
		tr.Decorrelated = qc.decorrelated
		tr.CSEHits = qc.cseHits
		tr.Profile = qc.profile()
		e.setTrace(tr)
	}()
	if hook := e.queryHook; hook != nil {
		hook(text)
	}
	qc.checkNow()
	if stmt == nil {
		if stmt, err = sql.Parse(text); err != nil {
			return nil, Trace{}, err
		}
	}
	out, tr, err := e.runStatement(qc, e.rewrite(qc, stmt), nil)
	if err != nil {
		return nil, Trace{}, err
	}
	return out.result(qc), tr, nil
}

// rewrite applies the planner's statement rewrites (IN-subquery
// decorrelation) ahead of execution. Copy-on-write: the caller's AST
// is never mutated, so RunContext callers keep a pristine statement.
func (e *Engine) rewrite(qc *qctx, stmt *sql.SelectStmt) *sql.SelectStmt {
	if e.reference {
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
// context, through the same path as QueryContext.
func (e *Engine) RunContext(ctx context.Context, stmt *sql.SelectStmt) (*Result, error) {
	res, _, err := e.query(ctx, "", stmt)
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

// block is a statement's output, the one intermediate form past the
// joins: n rows of a typed vector per output column (codes where the
// projection was on a dictionary). CTEs and subqueries bind it as a
// table; only the query's head block is boxed into rows.
type block struct {
	cols  []string
	types []schema.Type
	vecs  []colReader
	n     int
}

// result boxes the block, a column at a time, into the query's Result,
// every row a window of one arena.
func (bl *block) result(qc *qctx) *Result {
	res, np := &Result{Columns: bl.cols, Rows: make([][]storage.Value, bl.n)}, len(bl.vecs)
	arena := make([]storage.Value, bl.n*np)
	for p := range bl.vecs {
		qc.checkNow()
		for i := range res.Rows {
			arena[i*np+p] = bl.vecs[p].value(int32(i))
		}
	}
	for i := range res.Rows {
		res.Rows[i] = arena[i*np : (i+1)*np : (i+1)*np]
	}
	return res
}

// table makes the block an anonymous storage table over its vectors,
// so a CTE is referenced like a base table; a repeated column name is
// suffixed with its ordinal.
func (bl *block) table(name string) *storage.Table {
	def := &schema.Table{Name: name, Kind: schema.Dimension}
	seen := map[string]bool{}
	for i, col := range bl.cols {
		cname := col
		for seen[cname] {
			cname = fmt.Sprintf("%s_%d", col, i)
		}
		seen[cname] = true
		def.Columns = append(def.Columns, schema.Column{Name: cname, Type: bl.types[i], Nullable: true})
	}
	def.PrimaryKey = []string{def.Columns[0].Name}
	tab := storage.NewTable(def)
	for i, v := range bl.vecs {
		tab.Adopt(i, v.ints, v.flts, v.strs, v.codes, v.dict, v.nulls)
	}
	return tab
}

// runStatement materializes WITH clauses, dispatches union chains, and
// runs the head select. It returns the output and the trace of the head
// block (CTE and subquery traces stay local to their execution).
func (e *Engine) runStatement(qc *qctx, stmt *sql.SelectStmt, outer map[string]*storage.Table) (*block, Trace, error) {
	ctes := map[string]*storage.Table{}
	for k, v := range outer {
		ctes[k] = v
	}
	for _, cte := range stmt.With {
		qc.checkNow()
		tab, err := e.materialize(qc, "cte", cte.Name, cte.Select, ctes)
		if err != nil {
			return nil, Trace{}, fmt.Errorf("WITH %s: %w", cte.Name, err)
		}
		ctes[cte.Name] = tab
	}
	if stmt.UnionAll != nil {
		return e.runUnion(qc, stmt, ctes)
	}
	return e.runSelect(qc, stmt, ctes)
}

// materialize evaluates a CTE body (op "cte") or an expression
// subquery (op "subquery") into a table, under a node of its kind.
// Outside the reference, identical statements in identical CTE scopes
// run once per query: the memo key is the literal-preserving
// fingerprint plus the identity of every table in scope, so a repeated
// block shares the evaluation and — statistics are keyed by table
// instance — the gathered statistics.
func (e *Engine) materialize(qc *qctx, op, name string, stmt *sql.SelectStmt, ctes map[string]*storage.Table) (*storage.Table, error) {
	qc.startOp(op, name)
	defer qc.endOp()
	key := ""
	if !e.reference {
		key = op + "|" + plan.Fingerprint(stmt, true) + scopeSig(ctes)
		if tab, ok := qc.cse[key]; ok {
			qc.cseHits++
			// Memo hit: the node stays a leaf (no nested operator work),
			// which is exactly what CSE reuse looks like in the profile.
			qc.opRowsOut(int64(tab.NumRows()))
			return tab, nil
		}
	}
	out, _, err := e.runStatement(qc, stmt, ctes)
	if err != nil {
		return nil, err
	}
	tab := out.table(name)
	qc.opRowsOut(int64(tab.NumRows()))
	if key != "" {
		qc.cse[key] = tab
	}
	return tab, nil
}

// runUnion executes a UNION ALL chain; ORDER BY / LIMIT of the head
// apply to the concatenated output and may only reference output
// columns by name or ordinal. The returned trace is the first block's
// (the head's FROM clause).
func (e *Engine) runUnion(qc *qctx, head *sql.SelectStmt, ctes map[string]*storage.Table) (*block, Trace, error) {
	var blocks []*block
	var headTrace Trace
	for cur := head; cur != nil; cur = cur.UnionAll {
		qc.checkNow()
		one := *cur
		one.OrderBy, one.Limit, one.Offset, one.UnionAll, one.With = nil, -1, 0, nil, nil
		out, tr, err := e.runSelect(qc, &one, ctes)
		if err != nil {
			return nil, Trace{}, err
		}
		if len(blocks) == 0 {
			headTrace = tr
		} else if len(out.cols) != len(blocks[0].cols) {
			return nil, Trace{}, fmt.Errorf("UNION ALL blocks have %d vs %d columns", len(blocks[0].cols), len(out.cols))
		}
		blocks = append(blocks, out)
	}
	all, keys := concat(qc, blocks), make([]bexpr, len(head.OrderBy))
	projs := make([]bexpr, len(all.cols))
	for k, t := range all.types {
		projs[k] = &colExpr{off: k, t: t}
	}
	for i, oi := range head.OrderBy {
		k := -1
		if v, ok := oi.Expr.(*sql.ColRef); ok {
			k = slices.Index(all.cols, v.Name)
		} else if v, ok := oi.Expr.(*sql.Lit); ok && v.IsInt && v.IntVal >= 1 && int(v.IntVal) <= len(all.cols) {
			k = int(v.IntVal) - 1
		}
		if k < 0 {
			return nil, Trace{}, fmt.Errorf("ORDER BY %s over UNION ALL is not an output column's name or ordinal", oi.Expr.Render())
		}
		keys[i] = projs[k]
	}
	b := newBinder(e, qc, ctes)
	b.layout = all.vecs
	return e.finish(&rowSource{b: b, n: all.n}, projs, keys, head.OrderBy, false, head.Limit, head.Offset, all.cols, all.types), headTrace, nil
}

// concat is UNION ALL's output: the blocks' rows one after another,
// each column of the type its blocks' types promote to, converted as
// conform converts; string columns whose every block is on a small
// dictionary stay codes, on the blocks' merged dictionary.
func concat(qc *qctx, blocks []*block) *block {
	out := &block{cols: blocks[0].cols, types: slices.Clone(blocks[0].types), vecs: make([]colReader, len(blocks[0].vecs))}
	for _, bl := range blocks {
		out.n += bl.n
		for k, t := range bl.types {
			out.types[k] = promote(out.types[k], t)
		}
	}
	dicts := make([][]string, len(blocks))
	for k := range out.vecs {
		for i, bl := range blocks {
			dicts[i] = bl.vecs[k].dict
		}
		kind, col := kindOf(out.types[k]), &out.vecs[k]
		dict, remaps := mergeDicts(kind, dicts)
		col.resize(kind, out.n, dict)
		j := 0
		for i, bl := range blocks {
			qc.checkNow()
			for r := int32(0); int(r) < bl.n; r++ {
				col.putVia(j, &bl.vecs[k], r, remaps[i])
				j++
			}
		}
	}
	return out
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

// runSelect executes one plain SELECT block: its joined rows, then the
// post-join operators.
func (e *Engine) runSelect(qc *qctx, stmt *sql.SelectStmt, ctes map[string]*storage.Table) (*block, Trace, error) {
	b, orderBy, rows, tr, err := e.joinSelect(qc, stmt, ctes)
	if err != nil {
		return nil, Trace{}, err
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

	op, run := "project", e.projectSimple
	if aggregated {
		op, run = "aggregate", e.aggregate
	}
	qc.setPhase(op)
	qc.startOp(op, "")
	qc.opRowsIn(int64(rows.n))
	out, err := run(stmt, b, rows, orderBy)
	if err == nil {
		qc.opRowsOut(int64(out.n))
	}
	qc.endOp()
	return out, tr, err
}

// joinSelect binds a SELECT block and produces its joined base rows —
// none when a constant predicate is false — and the rewritten ORDER BY.
func (e *Engine) joinSelect(qc *qctx, stmt *sql.SelectStmt, ctes map[string]*storage.Table) (*binder, []sql.OrderItem, *rowSet, Trace, error) {
	qc.setPhase("bind")
	// Phase nodes mirror setPhase. A phase abandoned by an error return
	// never ends, and the trace leaves unended nodes out, so a failed
	// query leaves a truncated (not corrupt) timeline.
	qc.startOp("bind", "")
	b := newBinder(e, qc, ctes)
	for _, ref := range stmt.From {
		if err := b.addTable(ref); err != nil {
			return nil, nil, nil, Trace{}, err
		}
	}
	// Rewrite ORDER BY aliases and ordinals to their select expressions.
	orderBy, err := rewriteOrderBy(stmt.OrderBy, stmt.Items)
	if err != nil {
		return nil, nil, nil, Trace{}, err
	}

	// Classify WHERE conjuncts.
	var filters []filterInfo
	var edges []joinEdge
	var residual []bexpr
	var constPreds []bexpr
	for _, c := range conjuncts(stmt.Where) {
		be, err := b.bind(c)
		if err != nil {
			return nil, nil, nil, Trace{}, err
		}
		m := be.mask()
		switch bits.OnesCount64(m) {
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
				return nil, nil, nil, Trace{}, err
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
	qc.endOp()
	for _, p := range constPreds { // constant folding: evaluated once
		if !truthy(p.eval(nil)) {
			return b, orderBy, &rowSet{ids: make([][]int32, len(b.tables))}, Trace{}, nil
		}
	}

	// Produce joined base rows.
	qc.setPhase("join")
	qc.startOp("join", "")
	rows, tr, err := e.joinRows(b, stmt, filters, edges, residual, leftJoins)
	qc.endOp()
	return b, orderBy, rows, tr, err
}

// projectSimple handles the non-aggregated path: project, DISTINCT,
// ORDER BY, LIMIT.
func (e *Engine) projectSimple(stmt *sql.SelectStmt, b *binder, rows *rowSet, orderBy []sql.OrderItem) (*block, error) {
	cols, types, projs, keys, err := b.bindOutput(stmt, orderBy, false)
	if err != nil {
		return nil, err
	}
	src := &rowSource{b: b, rs: rows, n: rows.n}
	return e.finish(src, projs, keys, orderBy, stmt.Distinct, stmt.Limit, stmt.Offset, cols, types), nil
}

// bindOutput binds the select list, expanding *, and the sort keys.
func (b *binder) bindOutput(stmt *sql.SelectStmt, orderBy []sql.OrderItem, agg bool) (cols []string, types []schema.Type, projs, keys []bexpr, err error) {
	for _, item := range stmt.Items {
		if item.Star {
			for ti := range b.tables {
				inst := &b.tables[ti]
				for ci, col := range inst.tab.Def.Columns {
					cols, types = append(cols, col.Name), append(types, col.Type)
					projs = append(projs, &colExpr{off: inst.offset + ci, t: col.Type, tblBit: 1 << uint(ti)})
				}
			}
			continue
		}
		be, err := b.bindIn(item.Expr, "SELECT", agg)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		cols, types, projs = append(cols, outputName(item)), append(types, be.typ()), append(projs, be)
	}
	for _, oi := range orderBy {
		be, err := b.bindIn(oi.Expr, "ORDER BY", agg)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		keys = append(keys, be)
	}
	return cols, types, projs, keys, nil
}

// bindIn binds an expression of a clause; over the aggregated layout
// (agg) a base column read is one neither grouped nor aggregated.
func (b *binder) bindIn(e sql.Expr, clause string, agg bool) (bexpr, error) {
	be, err := b.bind(e)
	if err == nil && agg && be.mask() != 0 {
		err = fmt.Errorf("%s expression %s references columns outside GROUP BY", clause, e.Render())
	}
	return be, err
}

// finish is the ordering pipeline over src: DISTINCT keeps the first
// row of each projection tuple (key ids and group ids, as GROUP BY); the
// sort keys become typed vectors, and the rows sort by them and then by
// position, which makes any sort the stable one; OFFSET and LIMIT cut
// the sorted rows, and only those are projected, each into a typed
// vector of its program's kind (on its dictionary's codes when it has
// one).
func (e *Engine) finish(src *rowSource, projs, sortKeys []bexpr, orderBy []sql.OrderItem, distinct bool, limit, offset int, outCols []string, types []schema.Type) *block {
	qc := src.b.qc
	rows := make([]int32, src.n)
	for i := range rows {
		rows[i] = int32(i)
	}
	if distinct {
		keys := make([]keyVec, len(projs))
		for i, p := range projs {
			keys[i] = e.keyIDs(qc, src.view(p), src.n)
		}
		_, rows = groupIDs(qc, keys, uint(1)<<uint(len(keys))-1, src.n)
	}
	if len(sortKeys) > 0 {
		qc.startOp("sort", "")
		qc.opRowsIn(int64(len(rows)))
		qc.opRowsOut(int64(len(rows)))
		keys := make([][]uint64, len(sortKeys))
		for k, key := range sortKeys {
			keys[k] = sortKey(src, key, rows, orderBy[k].Desc)
		}
		// Positions sort with their first key beside them, so most
		// comparisons read no other vector.
		type entry struct {
			k uint64
			p int32
		}
		ents := make([]entry, len(rows))
		for j := range ents {
			ents[j] = entry{keys[0][j], int32(j)}
		}
		slices.SortFunc(ents, func(a, b entry) int {
			if c := cmp.Compare(a.k, b.k); c != 0 {
				return c
			}
			for _, key := range keys[1:] {
				if c := cmp.Compare(key[a.p], key[b.p]); c != 0 {
					return c
				}
			}
			return cmp.Compare(a.p, b.p)
		})
		for j, e := range ents { // rows in sorted order, through the spent keys
			ents[j].k = uint64(rows[e.p])
		}
		for j, e := range ents {
			rows[j] = int32(e.k)
		}
		qc.endOp()
	}
	rows = rows[min(max(offset, 0), len(rows)):]
	if limit >= 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	out := &block{cols: outCols, types: types, vecs: make([]colReader, len(projs)), n: len(rows)}
	for p, x := range projs {
		out.vecs[p] = src.gather(x, rows)
	}
	return out
}

// sortKey encodes one ORDER BY key of rows, through its vector program,
// as integers in sort order: NULL first, then numbers in cmp.Compare's
// order (storage.Compare's, with NaN — equal to every number there,
// which no sort can use — first), or strings by rank; complemented for
// DESC. A dictionary no larger than about the rows is ranked whole,
// other strings by the distinct values the rows hold, so a rank depends
// on the strings alone, never on codes.
func sortKey(src *rowSource, key bexpr, rows []int32, desc bool) []uint64 {
	comp := &vcomp{b: src.b}
	p := comp.val(key)
	fr, batch, text := src.frame(comp.slots), batchLen, p.kind == storage.KindString
	out, strs := make([]uint64, len(rows)), interner{}
	var byCode []uint32
	if p.dict != nil && len(p.dict) <= 4*len(rows) {
		byCode = dictRank(p.dict)
	}
	for base := 0; base < len(rows); base += batch {
		src.b.qc.checkNow()
		v := p.val(fr, rows[base:min(base+batch, len(rows))])
		for m, r := range v.idx {
			switch j := base + m; {
			case v.cr.null(r): // 0
			case byCode != nil:
				out[j] = uint64(byCode[v.cr.codes[r]]) + 1
			case text:
				out[j] = uint64(internID(strs, v.cr.str(r)))
			case v.cr.numAt(r) != v.cr.numAt(r): // NaN
				out[j] = 1
			default:
				// IEEE bits made monotone, above NaN's 1; -0 + 0 is 0.
				if b := math.Float64bits(v.cr.numAt(r) + 0); b>>63 != 0 {
					out[j] = ^b
				} else {
					out[j] = b | 1<<63
				}
			}
		}
	}
	if text && byCode == nil {
		distinct := make([]string, len(strs))
		for s, id := range strs {
			distinct[id-1] = s
		}
		byString := dictRank(distinct)
		for j, id := range out {
			if id > 0 {
				out[j] = uint64(byString[id-1]) + 1
			}
		}
	}
	if desc {
		for j := range out {
			out[j] = ^out[j]
		}
	}
	return out
}

// dictRank ranks distinct strings in string order.
func dictRank(dict []string) []uint32 {
	order := make([]uint32, len(dict))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int { return strings.Compare(dict[a], dict[b]) })
	rank := make([]uint32, len(dict))
	for k, code := range order {
		rank[code] = uint32(k)
	}
	return rank
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

// bitIndex is the index of the highest set bit of m (0 for 0): the
// table of a one-table mask.
func bitIndex(m uint64) int { return max(bits.Len64(m)-1, 0) }
