package exec

import (
	"fmt"
	"math"
	"sort"

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
	outType  schema.Type
}

// windowSpec is one distinct windowed aggregate (e.g. SUM(SUM(x)) OVER
// (PARTITION BY i_class) in Query 20). Its argument and partition
// expressions are bound over the aggregated row layout.
type windowSpec struct {
	render string
	fn     string
	arg    bexpr
	parts  []bexpr
}

// aggAcc accumulates one aggregate for one group.
type aggAcc struct {
	nonNull  int64
	rowCount int64
	sumI     int64
	sumF     float64
	sumSq    float64
	min, max storage.Value
	distinct map[string]bool
}

func (a *aggAcc) add(v storage.Value, distinct bool) {
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

func (a *aggAcc) finalize(spec aggSpec) storage.Value {
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

// aggregate executes the grouping path: hash aggregation over the joined
// base rows (gathered from the rowSet one scratch row at a time),
// windowed aggregates over the groups, then HAVING, projection,
// DISTINCT, ORDER BY and LIMIT.
func (e *Engine) aggregate(stmt *sql.SelectStmt, b *binder, rows *rowSet, orderBy []sql.OrderItem, tr *Trace) (*Result, []schema.Type, error) {
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
		spec.outType = aggOutType(spec.fn, spec.arg)
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
	readMask := maskOf(groupExprs)
	for i := range specs {
		if specs[i].arg != nil {
			readMask |= specs[i].arg.mask()
		}
	}
	rr := b.rowReader(rows, readMask)

	// Hash aggregation. aggregateMask groups by the group-by expressions
	// whose bit is set in mask, padding the others with NULL. The full
	// mask is ordinary grouping; ROLLUP uses prefix masks, CUBE every
	// subset (SQL-99 OLAP amendment).
	type group struct {
		vals  []storage.Value
		accs  []aggAcc
		first int // first contributing row (serial emit order)
	}
	width := len(groupExprs) + len(specs)
	emit := func(groups []*group) [][]storage.Value {
		out := make([][]storage.Value, 0, len(groups))
		for _, g := range groups {
			row := make([]storage.Value, width, width+len(winMap))
			copy(row, g.vals)
			for i := range specs {
				//lint:ignore boundscheck every group is allocated with accs: make([]aggAcc, len(specs)); the per-group field length is a cross-object invariant the per-variable domain cannot carry
				row[len(groupExprs)+i] = g.accs[i].finalize(specs[i])
			}
			out = append(out, row)
		}
		return out
	}
	aggregateMaskSerial := func(mask uint) [][]storage.Value {
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
				g = &group{vals: gvals, accs: make([]aggAcc, len(specs))}
				groups[string(keybuf)] = g
				order = append(order, g)
			}
			for i := range specs {
				v := storage.Int(1) // COUNT(*) counts rows
				if specs[i].arg != nil {
					v = specs[i].arg.eval(row)
				}
				//lint:ignore boundscheck every group is allocated with accs: make([]aggAcc, len(specs)); the per-group field length is a cross-object invariant the per-variable domain cannot carry
				g.accs[i].add(v, specs[i].distinct)
			}
		}
		// Global aggregate with no groups: one (possibly empty) group.
		if mask == 0 && len(groups) == 0 {
			order = append(order, &group{vals: make([]storage.Value, len(groupExprs)), accs: make([]aggAcc, len(specs))})
		}
		return emit(order)
	}

	// Parallel aggregation: group-by and aggregate-argument expressions
	// are evaluated once per row in morsels (shared by every mask), then
	// each mask partitions groups by key hash. One worker per partition
	// accumulates its groups walking the rows in global row order, so
	// per-group accumulation order — and therefore every float sum —
	// matches the serial fold bit for bit. Groups are emitted in
	// first-seen row order, the serial emit order.
	var gv, av [][]storage.Value // per-row group-expr / agg-arg values
	precompute := func(workers, morsel int) {
		if gv != nil {
			return
		}
		n := rows.n
		gv = make([][]storage.Value, n)
		av = make([][]storage.Value, n)
		// The per-row value arrays are the parallel aggregation's
		// dominant scratch, beside one gather row per worker; they live
		// until the last mask is emitted, so they count toward the
		// aggregate node's peak only.
		b.qc.growScratch((int64(n)*int64(len(groupExprs)+len(specs)+2) + int64(workers*b.total)) * valueBytes)
		counts := forEachMorsel(b.qc, workers, n, morsel, func(_, _, lo, hi int) {
			row := make([]storage.Value, b.total)
			for r := lo; r < hi; r++ {
				rr.fill(r, row)
				g := make([]storage.Value, len(groupExprs))
				for i := range groupExprs {
					g[i] = groupExprs[i].eval(row)
				}
				a := make([]storage.Value, len(specs))
				for i := range specs {
					if specs[i].arg != nil {
						a[i] = specs[i].arg.eval(row)
					} else {
						a[i] = storage.Int(1) // COUNT(*) counts rows
					}
				}
				gv[r], av[r] = g, a
			}
		})
		tr.addWork(counts)
	}
	aggregateMaskParallel := func(mask uint, workers, morsel int) [][]storage.Value {
		precompute(workers, morsel)
		n := rows.n
		// Shadow with locals pinned to this mask's view: precompute
		// guarantees one value slot per row, and the explicit check
		// makes that contract a local fact rather than action at a
		// distance through the lazily-filled captures.
		gv, av := gv, av
		if len(gv) != n || len(av) != n {
			panic("exec: precompute row-value sizes out of sync with rows")
		}
		keys := make([]string, n)
		parts := make([]int, n)
		// Per-mask key/partition vectors (string header + int per row),
		// released when this mask's groups have been emitted.
		b.qc.growScratch(int64(n) * 24)
		defer b.qc.shrinkScratch(int64(n) * 24)
		counts := forEachMorsel(b.qc, workers, n, morsel, func(_, _, lo, hi int) {
			var buf []byte
			for r := lo; r < hi; r++ {
				buf = buf[:0]
				for i := range groupExprs {
					if mask&(1<<uint(i)) != 0 {
						//lint:ignore boundscheck precompute builds each gv row with make([]storage.Value, len(groupExprs)); per-element slice lengths are outside the per-variable domain
						buf = gv[r][i].AppendGroupKey(buf)
					} else {
						buf = append(buf, 0, '-')
					}
				}
				keys[r] = string(buf)
				parts[r] = partOf(buf, workers)
			}
		})
		tr.addWork(counts)
		partGroups := make([][]*group, workers)
		parallelFor(workers, func(p int) {
			groups := map[string]*group{}
			var order []*group
			for r := 0; r < n; r++ {
				if r%(8*tickInterval) == 0 {
					b.qc.checkNow()
				}
				if parts[r] != p {
					continue
				}
				g := groups[keys[r]]
				if g == nil {
					gvals := make([]storage.Value, len(groupExprs))
					for i := range groupExprs {
						if mask&(1<<uint(i)) != 0 {
							//lint:ignore boundscheck precompute builds each gv row with make([]storage.Value, len(groupExprs)); per-element slice lengths are outside the per-variable domain
							gvals[i] = gv[r][i]
						} else {
							gvals[i] = storage.Null
						}
					}
					g = &group{vals: gvals, accs: make([]aggAcc, len(specs)), first: r}
					groups[keys[r]] = g
					order = append(order, g)
				}
				for i := range specs {
					//lint:ignore boundscheck per-group accs and per-row av lengths are fixed at construction (len(specs)); per-element invariants are outside the per-variable domain
					g.accs[i].add(av[r][i], specs[i].distinct)
				}
			}
			partGroups[p] = order
		})
		var all []*group
		for _, pg := range partGroups {
			all = append(all, pg...)
		}
		sort.Slice(all, func(a, b int) bool { return all[a].first < all[b].first })
		return emit(all)
	}
	aggregateMask := func(mask uint) [][]storage.Value {
		if workers, morsel := e.workers(), e.morselSize(); workers > 1 && rows.n > morsel {
			return aggregateMaskParallel(mask, workers, morsel)
		}
		return aggregateMaskSerial(mask)
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
			pa, pb := popcount(uint64(masks[a])), popcount(uint64(masks[b]))
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
		//lint:ignore boundscheck groupRenders is emitted one entry per groupExprs element (lockstep lengths); cross-slice equality is outside the per-variable domain
		slots[r] = &colExpr{off: i, t: groupExprs[i].typ()}
	}
	for i, spec := range specs {
		slots[spec.render] = &colExpr{off: len(groupExprs) + i, t: spec.outType}
	}

	// Window specs: bind args and partitions over the aggregated layout.
	b.slots = slots
	defer func() { b.slots = nil }()
	var winSpecs []windowSpec
	for render, w := range winMap {
		ws := windowSpec{render: render, fn: w.Agg.Name}
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
		accs := map[string]*aggAcc{}
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
				acc = &aggAcc{}
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
	src := rowSource{vals: aggRows, n: len(aggRows)}
	res := e.finish(b.qc, src, projs, sortKeys, orderBy, stmt.Distinct, stmt.Limit, stmt.Offset, outCols, tr)
	return res, outTypes, nil
}
