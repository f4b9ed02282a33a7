// Aggregation over column vectors: every grouping expression becomes a
// vector of key ids (keyIDs), a grouping mask's key ids combine into
// group ids in first-seen row order (groupIDs), and every aggregate
// folds its argument into per-group cells (aggAcc.fold) in row order,
// so float sums are the row-at-a-time fold's bit for bit.
package exec

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

	"tpcds/internal/index"
	"tpcds/internal/schema"
	"tpcds/internal/sql"
	"tpcds/internal/storage"
)

// aggSpec is one distinct aggregate call of a query (deduplicated by
// canonical render).
type aggSpec struct {
	render   string
	fn       string
	arg      bexpr // nil for COUNT(*)
	distinct bool
}

func isIntType(t schema.Type) bool {
	return t == schema.Integer || t == schema.Identifier
}

func aggOutType(fn string, arg bexpr) schema.Type {
	switch fn {
	case "COUNT":
		return schema.Integer
	case "AVG", "STDDEV_SAMP":
		return schema.Decimal
	case "SUM":
		if arg != nil && isIntType(arg.typ()) {
			return schema.Integer
		}
		return schema.Decimal
	default: // MIN, MAX
		if arg != nil {
			return arg.typ()
		}
		return schema.Decimal
	}
}

// collectAggregates walks an AST expression collecting aggregate calls
// (outside windows) and window calls. Aggregates inside a window's
// argument count as regular aggregates (SUM(SUM(x)) OVER: the inner SUM
// is computed per group, the outer across the partition).
func collectAggregates(e sql.Expr, aggs map[string]*sql.FuncCall, windows map[string]*sql.Window) {
	switch v := e.(type) {
	case *sql.FuncCall:
		if sql.IsAggregate(v.Name) {
			if _, dup := aggs[v.Render()]; !dup {
				aggs[v.Render()] = v
			}
			return // aggregate args cannot contain aggregates
		}
		for _, a := range v.Args {
			collectAggregates(a, aggs, windows)
		}
	case *sql.Window:
		if _, dup := windows[v.Render()]; !dup {
			windows[v.Render()] = v
		}
		// The window's aggregate argument contains per-group aggregates.
		for _, a := range v.Agg.Args {
			collectAggregates(a, aggs, windows)
		}
	case *sql.BinOp:
		collectAggregates(v.L, aggs, windows)
		collectAggregates(v.R, aggs, windows)
	case *sql.UnaryOp:
		collectAggregates(v.X, aggs, windows)
	case *sql.Between:
		collectAggregates(v.X, aggs, windows)
		collectAggregates(v.Lo, aggs, windows)
		collectAggregates(v.Hi, aggs, windows)
	case *sql.In:
		collectAggregates(v.X, aggs, windows)
	case *sql.Like:
		collectAggregates(v.X, aggs, windows)
	case *sql.IsNull:
		collectAggregates(v.X, aggs, windows)
	case *sql.CaseExpr:
		for _, w := range v.Whens {
			collectAggregates(w.Cond, aggs, windows)
			collectAggregates(w.Result, aggs, windows)
		}
		if v.Else != nil {
			collectAggregates(v.Else, aggs, windows)
		}
	}
}

// aggregate executes the grouping path: aggregation of the joined rows
// under every grouping mask, windowed aggregates over the groups, then
// HAVING, projection, DISTINCT, ORDER BY and LIMIT.
func (e *Engine) aggregate(stmt *sql.SelectStmt, b *binder, rows *rowSet, orderBy []sql.OrderItem) (*block, error) {
	// Gather distinct aggregate and window calls across all clauses.
	aggMap := map[string]*sql.FuncCall{}
	winMap := map[string]*sql.Window{}
	for _, item := range stmt.Items {
		if item.Star {
			return nil, fmt.Errorf("SELECT * cannot be combined with aggregation")
		}
		collectAggregates(item.Expr, aggMap, winMap)
	}
	if stmt.Having != nil {
		collectAggregates(stmt.Having, aggMap, winMap)
	}
	for _, oi := range orderBy {
		collectAggregates(oi.Expr, aggMap, winMap)
	}

	// Bind group-by expressions over the base layout; each takes the
	// slot of its position in the aggregated layout.
	var groupExprs []bexpr
	slots := map[string]bexpr{}
	for _, g := range stmt.GroupBy {
		be, err := b.bind(g)
		if err != nil {
			return nil, err
		}
		slots[g.Render()] = &colExpr{off: len(groupExprs), t: be.typ()}
		groupExprs = append(groupExprs, be)
	}

	// Bind aggregate arguments over the base layout, in render order.
	var specs []aggSpec
	for render, fc := range aggMap {
		arg, err := b.bindArg(fc, "aggregate argument", false)
		if err != nil {
			return nil, err
		}
		specs = append(specs, aggSpec{render: render, fn: fc.Name, arg: arg, distinct: fc.Distinct})
	}
	slices.SortFunc(specs, func(x, y aggSpec) int { return strings.Compare(x.render, y.render) })

	// Grouping masks: bit i keeps group-by expression i, the others are
	// NULL. The full mask is ordinary grouping; ROLLUP adds prefix masks,
	// CUBE every subset (SQL-99 OLAP amendment).
	fullMask := uint(1)<<uint(len(groupExprs)) - 1
	masks := []uint{fullMask}
	if (stmt.Rollup || stmt.Cube) && len(winMap) > 0 {
		return nil, fmt.Errorf("ROLLUP/CUBE cannot be combined with window functions")
	} else if stmt.Cube && len(groupExprs) > 12 {
		return nil, fmt.Errorf("CUBE over %d columns exceeds the supported 12", len(groupExprs))
	}
	switch {
	case stmt.Rollup:
		// Subtotal levels, coarsest last; the grand total is mask 0.
		for level := len(groupExprs) - 1; level >= 0; level-- {
			masks = append(masks, uint(1)<<uint(level)-1)
		}
	case stmt.Cube:
		// Every proper subset of the grouping columns, densest first.
		subsets := make([]uint, 0, fullMask)
		for m := uint(0); m < fullMask; m++ {
			subsets = append(subsets, m)
		}
		slices.SortFunc(subsets, func(x, y uint) int {
			if px, py := bits.OnesCount(x), bits.OnesCount(y); px != py {
				return py - px
			}
			return int(y) - int(x)
		})
		masks = append(masks, subsets...)
	}
	layout, n := e.groupRows(&rowSource{b: b, rs: rows, n: rows.n}, groupExprs, specs, masks)

	// The aggregates' slots follow the group expressions'.
	for i, spec := range specs {
		slots[spec.render] = &colExpr{off: len(groupExprs) + i, t: aggOutType(spec.fn, spec.arg)}
	}

	// Windows, in render order, over the aggregated layout: each groups
	// the aggregated rows by its partition — key ids, group ids and cells
	// as above — and adds its value at every row as a vector, a slot past
	// the aggregates.
	b.slots, b.layout = slots, layout
	defer func() { b.slots, b.layout = nil, nil }()
	var renders []string
	for render := range winMap {
		renders = append(renders, render)
	}
	slices.Sort(renders)
	for wi, render := range renders {
		w, src := winMap[render], &rowSource{b: b, n: n}
		arg, err := b.bindArg(w.Agg, "window argument", true)
		if err != nil {
			return nil, err
		}
		a := &aggAcc{spec: aggSpec{fn: w.Agg.Name, arg: arg}}
		if arg != nil {
			v := src.view(arg)
			a.in = &v
		}
		var keys []keyVec
		for _, p := range w.PartitionBy {
			bp, err := b.bindIn(p, "window partition", true)
			if err != nil {
				return nil, err
			}
			keys = append(keys, e.keyIDs(b.qc, src.view(bp), src.n))
		}
		gids, first := groupIDs(b.qc, keys, uint(1)<<uint(len(keys))-1, src.n)
		st, t := a.fold(b.qc, gids, len(first)), aggOutType(a.spec.fn, a.spec.arg)
		var col colReader
		col.resize(kindOf(t), n, nil)
		for ri, g := range gids {
			col.set(ri, st.result(int(g)))
		}
		b.layout = append(b.layout, col)
		slots[render] = &colExpr{off: len(groupExprs) + len(specs) + wi, t: t}
	}

	// HAVING, projection and ORDER BY over the aggregated layout.
	if stmt.Having != nil {
		hv, err := b.bindIn(stmt.Having, "HAVING", true)
		if err != nil {
			return nil, err
		}
		var kept []int32
		b.compileFilter([]bexpr{hv}).passing(b.qc, n, batchLen, nil, func(sel []int32) { kept = append(kept, sel...) })
		for k, cr := range b.layout { // the kept rows, into vectors of their own
			b.layout[k] = colReader{}
			b.layout[k].resize(cr.kind, len(kept), cr.dict)
			for j, r := range kept {
				b.layout[k].put(j, &cr, r)
			}
		}
		n = len(kept)
	}
	cols, types, projs, keys, err := b.bindOutput(stmt, orderBy, true)
	if err != nil {
		return nil, err
	}
	return e.finish(&rowSource{b: b, n: n}, projs, keys, orderBy, stmt.Distinct, stmt.Limit, stmt.Offset, cols, types), nil
}

// bindArg binds an aggregate call's argument: nil for COUNT(*). SUM, AVG
// and STDDEV_SAMP take a number.
func (b *binder) bindArg(fc *sql.FuncCall, clause string, agg bool) (bexpr, error) {
	if fc.Star {
		return nil, nil
	} else if len(fc.Args) != 1 {
		return nil, bindErrorf(sql.ExprPos(fc), "%s expects one argument", fc.Name)
	}
	arg, err := b.bindIn(fc.Args[0], clause, agg)
	if err == nil && fc.Name != "COUNT" && fc.Name != "MIN" && fc.Name != "MAX" {
		err = checkNumeric(fc, fc.Name, arg)
	}
	return arg, err
}

// groupRows aggregates src under each grouping mask into the n rows of
// the aggregated layout, the masks' groups one after another: a typed
// vector per group expression (NULL where the mask leaves it out; codes
// stay codes) and per aggregate. Every aggregate folds the rows in row
// order.
func (e *Engine) groupRows(src *rowSource, groups []bexpr, specs []aggSpec, masks []uint) (layout []colReader, n int) {
	qc := src.b.qc
	vals, keys := make([]keySource, len(groups)), make([]keyVec, len(groups))
	for i, g := range groups {
		vals[i] = src.view(g)
		keys[i] = e.keyIDs(qc, vals[i], src.n)
	}
	accs := make([]*aggAcc, len(specs))
	for i, s := range specs {
		a := &aggAcc{spec: s}
		if s.arg != nil {
			v := src.view(s.arg)
			a.in = &v
			if s.distinct {
				a.dkeys = e.keyIDs(qc, v, src.n)
			}
		}
		accs[i] = a
	}
	perRow := int64(src.n) * int64(4*len(groups)+12) // key ids, group ids, a combined key
	qc.growScratch(perRow)
	defer qc.shrinkScratch(perRow)
	firsts, states := make([][]int32, len(masks)), make([][]aggState, len(masks))
	for m, mask := range masks {
		gids, first := groupIDs(qc, keys, mask, src.n)
		if mask == 0 && len(first) == 0 {
			first = []int32{-1} // a global aggregate over no rows has one group
		}
		for _, a := range accs {
			if a.spec.distinct {
				// The rows that are the first of their (group, value) pair.
				_, pairs := groupIDs(qc, append(keys[:len(keys):len(keys)], a.dkeys), mask|1<<uint(len(keys)), src.n)
				firsts := make([]bool, src.n)
				for _, f := range pairs {
					if k := int(f); k >= 0 && k < len(firsts) {
						firsts[k] = true
					}
				}
				a.firsts = firsts
			}
		}
		firsts[m], states[m] = first, make([]aggState, len(accs))
		for i, a := range accs {
			states[m][i] = a.fold(qc, gids, len(first))
		}
		n += len(first)
	}
	layout = make([]colReader, len(groups)+len(specs))
	for i := range vals {
		layout[i].resize(vals[i].col.kind, n, vals[i].col.dict)
	}
	for i, a := range accs {
		layout[len(groups)+i].resize(kindOf(aggOutType(a.spec.fn, a.spec.arg)), n, nil)
	}
	j := 0
	for m, mask := range masks {
		qc.checkNow()
		for k, f := range firsts[m] {
			for i := range vals {
				r := int32(-1)
				if mask&(1<<uint(i)) != 0 && f >= 0 {
					r = vals[i].row(f)
				}
				layout[i].put(j, &vals[i].col, r)
			}
			for i, st := range states[m] {
				layout[len(groups)+i].set(j, st.result(k))
			}
			j++
		}
	}
	return layout, n
}

// keyVec numbers the values of one expression: ids[i] is 0 for a NULL,
// else equal for two rows exactly when their GroupKeys are; ids < dom.
type keyVec struct {
	ids []uint32
	dom uint64
}

// keyIDs numbers an expression's values in the n rows of a view: a
// dictionary string's code + 1 and an integer's or a date's offset from
// the smallest value + 1 (when the range fits 31 bits); any
// other value interned in row order — plain strings as themselves, the
// rest as GroupKey bytes, so float identity is GroupKey's: -0 and 0 are
// two keys and every NaN is one.
func (e *Engine) keyIDs(qc *qctx, v keySource, n int) keyVec {
	out, col := make([]uint32, n), &v.col
	base, dom := int64(0), uint64(0)
	switch {
	case col.codes != nil:
		dom = uint64(len(col.dict)) + 1
	case col.kind == storage.KindInt || col.kind == storage.KindDate:
		if lo, span, ok := intSpan(v, n); ok && span < 1<<31 {
			base, dom = lo, span+2
		}
	}
	if dom != 0 {
		rowKeys(qc, out, v, base, true, nil)
		return keyVec{out, dom}
	}
	in := interner{}
	rowKeys(qc, out, v, 0, false, in)
	return keyVec{out, uint64(len(in)) + 1}
}

// rowKeys numbers the values of rows [0, len(dst)): codes and, when
// numbered, integers by arithmetic, the rest in in.
func rowKeys(qc *qctx, dst []uint32, v keySource, base int64, numbered bool, in interner) {
	var buf []byte
	for i := range dst {
		if i%tickInterval == 0 {
			qc.checkNow()
		}
		switch r := v.row(int32(i)); {
		case r < 0 || v.col.null(r):
		case v.col.codes != nil:
			dst[i] = uint32(v.col.codes[r]) + 1
		case numbered:
			dst[i] = uint32(v.col.ints[r]-base) + 1
		case v.col.kind == storage.KindString:
			dst[i] = internID(in, v.col.strs[r])
		default:
			buf = v.col.value(r).AppendGroupKey(buf[:0])
			dst[i] = internID(in, buf)
		}
	}
}

// intSpan returns the smallest non-NULL value of an integer view over
// its n rows and the distance to the largest, if there is one.
func intSpan(v keySource, n int) (lo int64, span uint64, ok bool) {
	var hi int64
	for i := 0; i < n; i++ {
		r := v.row(int32(i))
		if r < 0 || v.col.null(r) {
			continue
		}
		if x := v.col.ints[r]; !ok {
			lo, hi, ok = x, x, true
		} else {
			lo, hi = min(lo, x), max(hi, x)
		}
	}
	return lo, uint64(hi) - uint64(lo), ok
}

// interner numbers keys from 1 in first-seen order.
type interner map[string]uint32

func internID[K ~string | ~[]byte](in interner, key K) uint32 {
	id, ok := in[string(key)]
	if !ok {
		id = uint32(len(in)) + 1
		in[string(key)] = id
	}
	return id
}

// groupIDs numbers the groups of the key columns mask selects in
// first-seen row order: gids[i] is row i's group, first[g] the first row
// of group g. Each row's key ids combine mixed-radix into one number: in
// gids itself, indexing a dense table, while the product of the domains
// stays near the row count; else an int64 (renumbered whenever the next
// column would overflow it) numbered through a hash index.
func groupIDs(qc *qctx, keys []keyVec, mask uint, n int) (gids, first []int32) {
	gids, dense := make([]int32, n), uint64(n)+1024
	dom := uint64(1)
	for c := range keys {
		if mask&(1<<uint(c)) != 0 && dom <= dense {
			dom *= keys[c].dom // below 2^31 · 2^33: no overflow
		}
	}
	if dom <= dense {
		table := make([]int32, dom) // group + 1; 0 for a key not seen yet
		for c := range keys {
			if mask&(1<<uint(c)) != 0 {
				mixKeys(gids, keys[c].ids, keys[c].dom)
			}
		}
		for i, s := range gids {
			if i%tickInterval == 0 {
				qc.checkNow()
			}
			j := int(s)
			if j < 0 || j >= len(table) {
				panic("exec: combined key outside its domain")
			}
			if table[j] == 0 {
				first = append(first, int32(i))
				table[j] = int32(len(first))
			}
			gids[i] = table[j] - 1
		}
		return gids, first
	}
	key := make([]int64, n)
	dom = 1
	for c := range keys {
		if k := keys[c]; mask&(1<<uint(c)) != 0 {
			if bits.Len64(dom)+bits.Len64(k.dom) > 63 {
				dom = uint64(len(hashGroups(qc, key, gids)))
				for i, g := range gids {
					key[i] = int64(g)
				}
			}
			mixKeys(key, k.ids, k.dom)
			dom *= k.dom
		}
	}
	return gids, hashGroups(qc, key, gids)
}

// mixKeys appends one key column to the combined keys: key*dom + id.
func mixKeys[K int32 | int64](key []K, ids []uint32, dom uint64) {
	if len(ids) != len(key) {
		panic("exec: key vectors differ in length")
	}
	for i, k := range ids {
		key[i] = key[i]*K(dom) + K(k)
	}
}

// hashGroups numbers the distinct keys in first-seen order into gids and
// returns their first rows: a hash index lists every key's rows in
// order, so a row starts a group exactly when it is its key's first.
func hashGroups(qc *qctx, key []int64, gids []int32) (first []int32) {
	ix := index.BuildHashIndex(key, nil)
	if len(gids) != len(key) {
		panic("exec: group and key vectors differ in length")
	}
	for i, k := range key {
		if i%tickInterval == 0 {
			qc.checkNow()
		}
		if f := int(ix.First(k)); f >= 0 && f < i {
			gids[i] = gids[f]
		} else {
			gids[i] = int32(len(first))
			first = append(first, int32(i))
		}
	}
	return first
}

// aggCell is one group's running state of one aggregate.
type aggCell struct {
	n           int64 // non-NULL inputs; rows for COUNT(*)
	sumI        int64 // integer and date inputs
	sumF, sumSq float64
}

// add folds one number: f, and i when it is an integer or a date.
func (c *aggCell) add(f float64, i int64, isInt, sq bool) {
	c.n++
	c.sumF += f
	if isInt {
		c.sumI += i
	}
	if sq {
		c.sumSq += f * f
	}
}

// aggAcc is one aggregate of a grouping: its argument's view (nil for
// COUNT(*)) and, for DISTINCT, its key ids and the rows first of their
// (group, value) pair.
type aggAcc struct {
	spec   aggSpec
	in     *keySource
	dkeys  keyVec
	firsts []bool
}

// aggState is one aggregate's cells, one per group, with the MIN
// or MAX value of each group in ext.
type aggState struct {
	spec  aggSpec
	cells []aggCell
	ext   []storage.Value
}

// fold aggregates the rows into the cells of their groups, ids
// [0, groups), walking the rows in order and reading the argument off
// its view; strings are only
// counted (and compared, for MIN and MAX).
func (a *aggAcc) fold(qc *qctx, gids []int32, groups int) aggState {
	st := aggState{spec: a.spec, cells: make([]aggCell, groups)}
	if a.spec.fn == "MIN" || a.spec.fn == "MAX" {
		st.ext = make([]storage.Value, groups)
	}
	cells, ext, firsts := st.cells, st.ext, a.firsts
	if len(firsts) != len(gids) && firsts != nil || a.in != nil && a.in.ids != nil && len(a.in.ids) != len(gids) {
		panic("exec: argument vectors and group ids differ in length")
	}
	var in keySource // the argument by value: the row loop reads no pointer
	if a.in != nil {
		in = *a.in
	}
	sq, sign := a.spec.fn == "STDDEV_SAMP", 1
	if a.spec.fn == "MAX" {
		sign = -1
	}
	for i, g := range gids {
		if i%tickInterval == 0 {
			qc.checkNow()
		}
		k := int(g)
		if k < 0 || k >= len(cells) || i < len(firsts) && !firsts[i] {
			continue
		}
		c := &cells[k]
		if a.in == nil { // COUNT(*)
			c.n++
			continue
		}
		switch r := in.row(int32(i)); {
		case r < 0 || in.col.null(r):
			continue
		case in.col.kind == storage.KindFloat:
			c.add(in.col.flts[r], 0, false, sq)
		case in.col.kind == storage.KindString:
			c.n++
		default:
			c.add(float64(in.col.ints[r]), in.col.ints[r], true, sq)
		}
		if k < len(ext) {
			if v := in.col.value(in.row(int32(i))); ext[k].IsNull() || sign*storage.Compare(v, ext[k]) < 0 {
				ext[k] = v
			}
		}
	}
	return st
}

// result is the aggregate's value for group k.
func (st aggState) result(k int) storage.Value {
	if k < 0 || k >= len(st.cells) {
		panic("exec: group out of range")
	}
	c, ext := st.cells[k], storage.Null
	if k < len(st.ext) {
		ext = st.ext[k]
	}
	switch st.spec.fn {
	case "COUNT":
		return storage.Int(c.n)
	case "SUM":
		if c.n == 0 {
			return storage.Null
		}
		if isIntType(st.spec.arg.typ()) {
			return storage.Int(c.sumI)
		}
		return storage.Float(c.sumF)
	case "AVG":
		if c.n == 0 {
			return storage.Null
		}
		return storage.Float(c.sumF / float64(c.n))
	case "MIN", "MAX":
		return ext
	case "STDDEV_SAMP":
		if c.n < 2 {
			return storage.Null
		}
		n := float64(c.n)
		variance := (c.sumSq - c.sumF*c.sumF/n) / (n - 1)
		if variance < 0 {
			variance = 0
		}
		return storage.Float(math.Sqrt(variance))
	default:
		panic("exec: unknown aggregate " + st.spec.fn)
	}
}
