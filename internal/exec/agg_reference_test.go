package exec

// The aggregation and ordering operators as they were before they ran
// on column vectors — a scratch row gathered per joined row, group keys
// as concatenated GroupKey bytes in a map, one []refAcc per group, a
// stable sort of fully projected rows — kept as the oracle the vector
// operators are diffed against (agg_oracle_test.go). Two known defects
// of this code are not repaired here, and the differential inputs avoid
// them: composite keys collide on strings holding a 0 byte, and NaN sort
// keys order by the accident of the sort algorithm.

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"unsafe"

	"tpcds/internal/schema"
	"tpcds/internal/sql"
	"tpcds/internal/storage"
)

// valueBytes is the in-memory size of one storage.Value (kind tag padded
// to 8, int64, float64, string header), for scratch accounting.
const valueBytes = int64(unsafe.Sizeof(storage.Value{}))

// refAcc accumulates one aggregate for one group.
type refAcc struct {
	nonNull  int64
	rowCount int64
	sumI     int64
	sumF     float64
	sumSq    float64
	min, max storage.Value
	distinct map[string]bool
}

func (a *refAcc) add(v storage.Value, distinct bool) {
	a.rowCount++
	if v.IsNull() {
		return
	}
	if distinct {
		if a.distinct == nil {
			a.distinct = map[string]bool{}
		}
		key := v.GroupKey()
		if a.distinct[key] {
			return
		}
		a.distinct[key] = true
	}
	a.nonNull++
	switch v.K {
	case storage.KindInt, storage.KindDate:
		a.sumI += v.I
		a.sumF += float64(v.I)
		a.sumSq += float64(v.I) * float64(v.I)
	case storage.KindFloat:
		a.sumF += v.F
		a.sumSq += v.F * v.F
	}
	if a.min.IsNull() || storage.Compare(v, a.min) < 0 {
		a.min = v
	}
	if a.max.IsNull() || storage.Compare(v, a.max) > 0 {
		a.max = v
	}
}

func (a *refAcc) finalize(spec aggSpec) storage.Value {
	switch spec.fn {
	case "COUNT":
		if spec.arg == nil { // COUNT(*)
			return storage.Int(a.rowCount)
		}
		return storage.Int(a.nonNull)
	case "SUM":
		if a.nonNull == 0 {
			return storage.Null
		}
		if isIntType(spec.arg.typ()) {
			return storage.Int(a.sumI)
		}
		return storage.Float(a.sumF)
	case "AVG":
		if a.nonNull == 0 {
			return storage.Null
		}
		return storage.Float(a.sumF / float64(a.nonNull))
	case "MIN":
		return a.min
	case "MAX":
		return a.max
	case "STDDEV_SAMP":
		if a.nonNull < 2 {
			return storage.Null
		}
		n := float64(a.nonNull)
		variance := (a.sumSq - a.sumF*a.sumF/n) / (n - 1)
		if variance < 0 {
			variance = 0
		}
		return storage.Float(math.Sqrt(variance))
	default:
		panic("exec: unknown aggregate " + spec.fn)
	}
}

// refRowReader gathers rowSet rows into a full-width scratch row: every
// column of the tables a consumer's expressions reference.
type refRowReader struct {
	tabs []refReaderTab
}

type refReaderTab struct {
	ids  []int32
	cols []colReader
}

func newRefRowReader(b *binder, rs *rowSet, mask uint64) *refRowReader {
	rr := &refRowReader{}
	for ti, ids := range rs.ids {
		if ids == nil || mask&(1<<uint(ti)) == 0 {
			continue
		}
		tab := refReaderTab{ids: ids}
		for c := 0; c < b.tables[ti].width(); c++ {
			tab.cols = append(tab.cols, newColReader(&b.tables[ti], c))
		}
		rr.tabs = append(rr.tabs, tab)
	}
	return rr
}

// fill materialises intermediate row i into row.
func (rr *refRowReader) fill(i int, row []storage.Value) {
	for t := range rr.tabs {
		tab := &rr.tabs[t]
		for c := range tab.cols {
			row[tab.cols[c].off] = storage.Null
			if r := tab.ids[i]; r >= 0 {
				row[tab.cols[c].off] = tab.cols[c].value(r)
			}
		}
	}
}

// refRowSource is the input of the projection stage: materialised rows
// (the aggregated layout), or a rowSet gathered through rr into a
// scratch row of the given width.
type refRowSource struct {
	vals  [][]storage.Value
	rr    *refRowReader
	n     int
	width int
}

// row yields input row i: in place, or gathered into scratch.
func (s *refRowSource) row(i int, scratch []storage.Value) []storage.Value {
	if s.rr == nil {
		return s.vals[i]
	}
	s.rr.fill(i, scratch)
	return scratch
}

// refAggregate executes the grouping path: hash aggregation over the joined
// base rows (gathered from the rowSet one scratch row at a time),
// windowed aggregates over the groups, then HAVING, projection,
// DISTINCT, ORDER BY and LIMIT.
func (e *Engine) refAggregate(stmt *sql.SelectStmt, b *binder, rows *rowSet, orderBy []sql.OrderItem) (*Result, []schema.Type, error) {
	// Gather distinct aggregate and window calls across all clauses.
	aggMap := map[string]*sql.FuncCall{}
	winMap := map[string]*sql.Window{}
	for _, item := range stmt.Items {
		if item.Star {
			return nil, nil, fmt.Errorf("SELECT * cannot be combined with aggregation")
		}
		collectAggregates(item.Expr, aggMap, winMap)
	}
	if stmt.Having != nil {
		collectAggregates(stmt.Having, aggMap, winMap)
	}
	for _, oi := range orderBy {
		collectAggregates(oi.Expr, aggMap, winMap)
	}

	// Bind group-by expressions over the base layout.
	var groupExprs []bexpr
	var groupRenders []string
	for _, g := range stmt.GroupBy {
		be, err := b.bind(g)
		if err != nil {
			return nil, nil, err
		}
		groupExprs = append(groupExprs, be)
		groupRenders = append(groupRenders, g.Render())
	}

	// Bind aggregate arguments over the base layout (deterministic order).
	var specs []aggSpec
	for render, fc := range aggMap {
		spec := aggSpec{render: render, fn: fc.Name, distinct: fc.Distinct}
		if !fc.Star {
			if len(fc.Args) != 1 {
				return nil, nil, fmt.Errorf("%s expects one argument", fc.Name)
			}
			arg, err := b.bind(fc.Args[0])
			if err != nil {
				return nil, nil, err
			}
			spec.arg = arg
		}
		specs = append(specs, spec)
	}
	// Sort specs by render for deterministic slot assignment.
	for i := 1; i < len(specs); i++ {
		for j := i; j > 0 && specs[j].render < specs[j-1].render; j-- {
			specs[j], specs[j-1] = specs[j-1], specs[j]
		}
	}

	// Group keys and aggregate arguments are the only base-layout
	// expressions evaluated here: the reader gathers just their tables.
	readMask := refMaskOf(groupExprs)
	for i := range specs {
		if specs[i].arg != nil {
			readMask |= specs[i].arg.mask()
		}
	}
	rr := newRefRowReader(b, rows, readMask)

	// Hash aggregation. aggregateMask groups by the group-by expressions
	// whose bit is set in mask, padding the others with NULL. The full
	// mask is ordinary grouping; ROLLUP uses prefix masks, CUBE every
	// subset (SQL-99 OLAP amendment).
	type group struct {
		vals []storage.Value
		accs []refAcc
	}
	width := len(groupExprs) + len(specs)
	emit := func(groups []*group) [][]storage.Value {
		out := make([][]storage.Value, 0, len(groups))
		for _, g := range groups {
			row := make([]storage.Value, width, width+len(winMap))
			copy(row, g.vals)
			for i := range specs {
				row[len(groupExprs)+i] = g.accs[i].finalize(specs[i])
			}
			out = append(out, row)
		}
		return out
	}
	aggregateMask := func(mask uint) [][]storage.Value {
		groups := map[string]*group{}
		var order []*group // preserve first-seen order for determinism
		// The group key is assembled in a reusable byte buffer and looked
		// up without conversion (map[string(buf)] compiles to a no-alloc
		// read); the key string and the group value slice are allocated
		// only when a new group appears. The bytes match the GroupKey
		// concatenation exactly, so grouping is unchanged.
		var keybuf []byte
		gtmp := make([]storage.Value, len(groupExprs))
		row := make([]storage.Value, b.total)
		b.qc.growScratch(int64(len(row)+len(gtmp)) * valueBytes)
		defer b.qc.shrinkScratch(int64(len(row)+len(gtmp)) * valueBytes)
		for r := 0; r < rows.n; r++ {
			b.qc.tick()
			rr.fill(r, row)
			keybuf = keybuf[:0]
			for i := range groupExprs {
				if mask&(1<<uint(i)) != 0 {
					gtmp[i] = groupExprs[i].eval(row)
					keybuf = gtmp[i].AppendGroupKey(keybuf)
				} else {
					gtmp[i] = storage.Null
					keybuf = append(keybuf, 0, '-')
				}
			}
			g := groups[string(keybuf)]
			if g == nil {
				gvals := make([]storage.Value, len(groupExprs))
				copy(gvals, gtmp)
				g = &group{vals: gvals, accs: make([]refAcc, len(specs))}
				groups[string(keybuf)] = g
				order = append(order, g)
			}
			for i := range specs {
				v := storage.Int(1) // COUNT(*) counts rows
				if specs[i].arg != nil {
					v = specs[i].arg.eval(row)
				}
				g.accs[i].add(v, specs[i].distinct)
			}
		}
		// Global aggregate with no groups: one (possibly empty) group.
		if mask == 0 && len(groups) == 0 {
			order = append(order, &group{vals: make([]storage.Value, len(groupExprs)), accs: make([]refAcc, len(specs))})
		}
		return emit(order)
	}

	fullMask := uint(1)<<uint(len(groupExprs)) - 1
	aggRows := aggregateMask(fullMask)
	if stmt.Rollup || stmt.Cube {
		if len(winMap) > 0 {
			return nil, nil, fmt.Errorf("ROLLUP/CUBE cannot be combined with window functions")
		}
		if stmt.Cube && len(groupExprs) > 12 {
			return nil, nil, fmt.Errorf("CUBE over %d columns exceeds the supported 12", len(groupExprs))
		}
	}
	switch {
	case stmt.Rollup:
		// Subtotal levels, coarsest last; the grand total is mask 0.
		for level := len(groupExprs) - 1; level >= 0; level-- {
			aggRows = append(aggRows, aggregateMask(uint(1)<<uint(level)-1)...)
		}
	case stmt.Cube:
		// Every proper subset of the grouping columns, densest first.
		masks := make([]uint, 0, fullMask)
		for m := uint(0); m < fullMask; m++ {
			masks = append(masks, m)
		}
		sort.Slice(masks, func(a, b int) bool {
			pa, pb := bits.OnesCount(masks[a]), bits.OnesCount(masks[b])
			if pa != pb {
				return pa > pb
			}
			return masks[a] > masks[b]
		})
		for _, m := range masks {
			aggRows = append(aggRows, aggregateMask(m)...)
		}
	}

	// Slot table for post-aggregation binding.
	slots := map[string]bexpr{}
	for i, r := range groupRenders {
		slots[r] = &colExpr{off: i, t: groupExprs[i].typ()}
	}
	for i, spec := range specs {
		slots[spec.render] = &colExpr{off: len(groupExprs) + i, t: aggOutType(spec.fn, spec.arg)}
	}

	// Window specs: bind args and partitions over the aggregated layout.
	b.slots = slots
	defer func() { b.slots = nil }()
	var winSpecs []refWindowSpec
	for render, w := range winMap {
		ws := refWindowSpec{render: render, fn: w.Agg.Name}
		if w.Agg.Star {
			ws.arg = nil
		} else {
			if len(w.Agg.Args) != 1 {
				return nil, nil, fmt.Errorf("%s expects one argument", w.Agg.Name)
			}
			arg, err := b.bind(w.Agg.Args[0])
			if err != nil {
				return nil, nil, fmt.Errorf("window argument: %w", err)
			}
			if arg.mask() != 0 {
				return nil, nil, fmt.Errorf("window argument %s references columns outside GROUP BY", w.Agg.Args[0].Render())
			}
			ws.arg = arg
		}
		for _, p := range w.PartitionBy {
			bp, err := b.bind(p)
			if err != nil {
				return nil, nil, fmt.Errorf("window partition: %w", err)
			}
			if bp.mask() != 0 {
				return nil, nil, fmt.Errorf("window partition %s references columns outside GROUP BY", p.Render())
			}
			ws.parts = append(ws.parts, bp)
		}
		winSpecs = append(winSpecs, ws)
	}
	for i := 1; i < len(winSpecs); i++ {
		for j := i; j > 0 && winSpecs[j].render < winSpecs[j-1].render; j-- {
			winSpecs[j], winSpecs[j-1] = winSpecs[j-1], winSpecs[j]
		}
	}
	// Compute each window column and extend rows and slots.
	for wi := range winSpecs {
		ws := &winSpecs[wi]
		accs := map[string]*refAcc{}
		keys := make([]string, len(aggRows))
		for ri, row := range aggRows {
			b.qc.tick()
			key := ""
			for _, p := range ws.parts {
				key += p.eval(row).GroupKey()
			}
			keys[ri] = key
			acc := accs[key]
			if acc == nil {
				acc = &refAcc{}
				accs[key] = acc
			}
			v := storage.Int(1)
			if ws.arg != nil {
				v = ws.arg.eval(row)
			}
			acc.add(v, false)
		}
		spec := aggSpec{fn: ws.fn, arg: ws.arg}
		outType := aggOutType(ws.fn, ws.arg)
		// Window columns take slots past the aggregate layout; width
		// itself stays fixed at the emit-time row length.
		slot := width + wi
		for ri := range aggRows {
			aggRows[ri] = append(aggRows[ri], accs[keys[ri]].finalize(spec))
		}
		slots[ws.render] = &colExpr{off: slot, t: outType}
	}

	// bindAgg binds an expression over the aggregated layout and rejects
	// references to base columns that are neither grouped nor aggregated
	// (slot expressions carry an empty table mask; anything else leaked
	// through to the base layout).
	bindAgg := func(e sql.Expr, clause string) (bexpr, error) {
		be, err := b.bind(e)
		if err != nil {
			return nil, err
		}
		if be.mask() != 0 {
			return nil, fmt.Errorf("%s expression %s references columns outside GROUP BY", clause, e.Render())
		}
		return be, nil
	}

	// HAVING over the aggregated layout.
	if stmt.Having != nil {
		hv, err := bindAgg(stmt.Having, "HAVING")
		if err != nil {
			return nil, nil, err
		}
		w := 0
		for _, row := range aggRows {
			if truthy(hv.eval(row)) {
				aggRows[w] = row
				w++
			}
		}
		aggRows = aggRows[:w]
	}

	// Projection and ORDER BY over the aggregated layout.
	var outCols []string
	var outTypes []schema.Type
	var projs []bexpr
	for _, item := range stmt.Items {
		be, err := bindAgg(item.Expr, "SELECT")
		if err != nil {
			return nil, nil, err
		}
		outCols = append(outCols, outputName(item))
		outTypes = append(outTypes, be.typ())
		projs = append(projs, be)
	}
	var sortKeys []bexpr
	for _, oi := range orderBy {
		be, err := bindAgg(oi.Expr, "ORDER BY")
		if err != nil {
			return nil, nil, err
		}
		sortKeys = append(sortKeys, be)
	}
	src := refRowSource{vals: aggRows, n: len(aggRows)}
	res := e.refFinish(b.qc, src, projs, sortKeys, orderBy, stmt.Distinct, stmt.Limit, stmt.Offset, outCols)
	return res, outTypes, nil
}

// refProjectSimple handles the non-aggregated path: project, DISTINCT,
// ORDER BY, LIMIT.
func (e *Engine) refProjectSimple(stmt *sql.SelectStmt, b *binder, rows *rowSet, orderBy []sql.OrderItem) (*Result, []schema.Type, error) {
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
	src := refRowSource{rr: newRefRowReader(b, rows, refMaskOf(projs, sortKeys)), n: rows.n, width: b.total}
	res := e.refFinish(b.qc, src, projs, sortKeys, orderBy, stmt.Distinct, stmt.Limit, stmt.Offset, outCols)
	return res, outTypes, nil
}

// refFinish evaluates projections and sort keys over the rows of src,
// applies DISTINCT, ORDER BY and LIMIT, and assembles the result.
// Evaluation carves the projection and sort key values out of one
// arena; DISTINCT dedup then walks the rows in order, first wins.
func (e *Engine) refFinish(qc *qctx, src refRowSource, projs, sortKeys []bexpr, orderBy []sql.OrderItem, distinct bool, limit, offset int, outCols []string) *Result {
	type outRow struct {
		proj []storage.Value
		keys []storage.Value
	}
	n, np, width := src.n, len(projs), len(projs)+len(sortKeys)
	outs := make([]outRow, n)
	scratch := make([]storage.Value, src.width)
	arena := make([]storage.Value, n*width)
	for i := 0; i < n; i++ {
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
		qc.startOp("sort", "")
		qc.opRowsIn(int64(len(outs)))
		qc.opRowsOut(int64(len(outs)))
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
		qc.endOp()
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

// refWindowSpec is one distinct windowed aggregate, bound over the
// aggregated row layout.
type refWindowSpec struct {
	render string
	fn     string
	arg    bexpr
	parts  []bexpr
}

// refMaskOf is the union table mask of expression lists.
func refMaskOf(lists ...[]bexpr) uint64 {
	var m uint64
	for _, l := range lists {
		for _, e := range l {
			m |= e.mask()
		}
	}
	return m
}
