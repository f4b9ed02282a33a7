package exec

import (
	"tpcds/internal/index"
	"tpcds/internal/schema"
	"tpcds/internal/sql"
	"tpcds/internal/storage"
)

// colStats are the per-column statistics the load test gathers ("gather
// statistics for the test database" is part of the timed load, §5.2).
// The paper notes that un-skewed data "imposes little challenges on
// statistic collection and optimal plan generation" — skewed TPC-DS
// data makes these numbers matter (TestStatisticsImproveEstimates;
// EXPERIMENTS.md "statistics vs heuristics").
//
// valid is false for non-integer columns AND for columns with no
// non-NULL values: an all-NULL (or empty) column has no min/max, and a
// fabricated min=max=0 would feed a zero-width range into selectivity
// math. rows/nonNull are carried explicitly so callers can reason about
// null fractions.
type colStats struct {
	distinct int
	min, max int64
	nonNull  int
	rows     int // table row count at gather time
	valid    bool
}

// columnStats returns the statistics of an integer-typed column,
// gathered once per table epoch (cached); valid is false for
// string/decimal columns and for columns with no non-NULL values. The
// qctx keeps the full-column gathering scan cancellable on large tables.
func (e *Engine) columnStats(qc *qctx, t *storage.Table, col int) colStats {
	switch t.Def.Columns[col].Type {
	case schema.Identifier, schema.Integer, schema.Date:
	default:
		return colStats{}
	}
	st, _ := cached(e, auxStats, t, col, func() colStats { return gatherStats(qc, t, col) })
	return st
}

// gatherStats scans column col of t for its statistics.
func gatherStats(qc *qctx, t *storage.Table, col int) colStats {
	vals, nulls := t.ScanInt64(col)
	st := colStats{rows: t.NumRows()}
	for i, v := range vals {
		qc.tick()
		if storage.IsNull(nulls, i) {
			continue
		}
		if st.nonNull == 0 || v < st.min {
			st.min = v
		}
		if st.nonNull == 0 || v > st.max {
			st.max = v
		}
		st.nonNull++
	}
	st.distinct = countDistinct(qc, vals, nulls, st.min, st.max)
	st.valid = st.nonNull > 0
	return st
}

// countDistinct counts the distinct non-NULL values, all of them in
// [lo, hi]: in a bitmap over that range while it is not much wider than
// the column is long (keys, dates, quantities — a bit per possible
// value where a map entry per value costs several hundred times that),
// in a map otherwise.
func countDistinct(qc *qctx, vals []int64, nulls []bool, lo, hi int64) int {
	span := uint64(hi) - uint64(lo) // exact even where hi-lo overflows int64
	if span >= uint64(8*len(vals)+1024) {
		seen := make(map[int64]struct{}, 1024)
		for i, v := range vals {
			qc.tick()
			if !storage.IsNull(nulls, i) {
				seen[v] = struct{}{}
			}
		}
		return len(seen)
	}
	seen := index.NewBitmap(int(span) + 1)
	for i, v := range vals {
		qc.tick()
		if !storage.IsNull(nulls, i) {
			seen.Set(int(uint64(v) - uint64(lo)))
		}
	}
	return seen.Count()
}

// uniqueKey reports whether the column is provably a unique join key:
// exact statistics show every non-NULL value distinct. NULLs never
// join, so uniqueness among non-NULL values bounds any hash probe at
// one match — the property the cost planner's order-safety proof needs
// (see DESIGN.md "Cost-based planning").
func (e *Engine) uniqueKey(qc *qctx, t *storage.Table, col int) bool {
	st := e.columnStats(qc, t, col)
	return st.valid && st.distinct == st.nonNull
}

// selHint captures the analyzable shape of a single-table predicate for
// statistics-based selectivity estimation.
type selHint struct {
	table   int
	colIdx  int // column index within the table
	kind    string
	lo, hi  int64 // for range/between shapes
	inCount int   // for IN lists
	hasVals bool  // lo/hi populated
}

// analyzeFilter extracts a selHint from the AST conjunct and its bound
// predicate, when the shape is recognizable (column-vs-literal).
func analyzeFilter(b *binder, c sql.Expr, ti int) (selHint, bool) {
	inst := &b.tables[ti]
	colIdxOf := func(e sql.Expr) (int, bool) {
		cr, ok := e.(*sql.ColRef)
		if !ok {
			return 0, false
		}
		ce, err := b.resolveColumn(cr)
		if err != nil {
			return 0, false
		}
		if ce.off < inst.offset || ce.off >= inst.offset+inst.width() {
			return 0, false
		}
		return ce.off - inst.offset, true
	}
	litInt := func(e sql.Expr) (int64, bool) {
		switch v := e.(type) {
		case *sql.Lit:
			if v.Kind == sql.LitNumber && v.IsInt {
				return v.IntVal, true
			}
			if v.Kind == sql.LitDate {
				if d, err := storage.ParseDate(v.Str); err == nil {
					return d, true
				}
			}
		}
		return 0, false
	}
	switch v := c.(type) {
	case *sql.BinOp:
		ci, ok := colIdxOf(v.L)
		if !ok {
			return selHint{}, false
		}
		lit, litOK := litInt(v.R)
		switch v.Op {
		case "=":
			if litOK {
				return selHint{table: ti, colIdx: ci, kind: "eq", lo: lit, hi: lit, hasVals: true}, true
			}
			return selHint{table: ti, colIdx: ci, kind: "eq"}, true
		case "<", "<=":
			if litOK {
				hi := lit
				if v.Op == "<" {
					hi-- // integer domains: strict bound is inclusive-1
				}
				return selHint{table: ti, colIdx: ci, kind: "lt", hi: hi, hasVals: true}, true
			}
		case ">", ">=":
			if litOK {
				lo := lit
				if v.Op == ">" {
					lo++
				}
				return selHint{table: ti, colIdx: ci, kind: "gt", lo: lo, hasVals: true}, true
			}
		}
	case *sql.Between:
		ci, ok := colIdxOf(v.X)
		if !ok || v.Not {
			return selHint{}, false
		}
		lo, loOK := litInt(v.Lo)
		hi, hiOK := litInt(v.Hi)
		if loOK && hiOK {
			return selHint{table: ti, colIdx: ci, kind: "between", lo: lo, hi: hi, hasVals: true}, true
		}
	case *sql.In:
		ci, ok := colIdxOf(v.X)
		if !ok || v.Not || v.Sub != nil {
			return selHint{}, false
		}
		return selHint{table: ti, colIdx: ci, kind: "in", inCount: len(v.List)}, true
	}
	return selHint{}, false
}

// hintSelectivity estimates a predicate's selectivity from column
// statistics, falling back to 1 (caller applies the heuristic instead)
// when statistics don't apply.
func (e *Engine) hintSelectivity(b *binder, h selHint) (float64, bool) {
	inst := &b.tables[h.table]
	st := e.columnStats(b.qc, inst.tab, h.colIdx)
	if !st.valid || st.nonNull == 0 {
		return 0, false
	}
	span := float64(st.max-st.min) + 1
	switch h.kind {
	case "eq":
		if st.distinct == 0 {
			return 0, false
		}
		sel := 1 / float64(st.distinct)
		if h.hasVals && (h.lo < st.min || h.lo > st.max) {
			return 0, true // literal outside the domain: empty
		}
		return sel, true
	case "in":
		if st.distinct == 0 {
			return 0, false
		}
		sel := float64(h.inCount) / float64(st.distinct)
		if sel > 1 {
			sel = 1
		}
		return sel, true
	case "between":
		if !h.hasVals || span <= 0 {
			return 0, false
		}
		lo, hi := h.lo, h.hi
		if lo < st.min {
			lo = st.min
		}
		if hi > st.max {
			hi = st.max
		}
		if hi < lo {
			return 0, true
		}
		return float64(hi-lo+1) / span, true
	case "lt":
		if !h.hasVals || span <= 0 {
			return 0, false
		}
		if h.hi < st.min {
			return 0, true
		}
		if h.hi >= st.max {
			return 1, true
		}
		return float64(h.hi-st.min+1) / span, true
	case "gt":
		if !h.hasVals || span <= 0 {
			return 0, false
		}
		if h.lo > st.max {
			return 0, true
		}
		if h.lo <= st.min {
			return 1, true
		}
		return float64(st.max-h.lo+1) / span, true
	}
	return 0, false
}
