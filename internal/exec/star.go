package exec

import (
	"tpcds/internal/index"
	"tpcds/internal/plan"
	"tpcds/internal/schema"
)

// dimSpec describes one dimension of a star-shaped query as needed by
// the star transformation executor.
type dimSpec struct {
	table   int      // table instance index
	factCol *colExpr // fact-side join column (absolute offset)
	pkCol   int      // dimension-local primary key column index
	hasPred bool
}

// starShape recognizes the star query shape: one fact (the largest
// table) joined to dimensions, each on a single equality edge hitting
// the dimension's one-column primary key, with no dimension-to-dimension
// edges and no outer joins. Returns the optimizer shape summary and the
// executable dimension specs keyed by table index.
func (e *Engine) starShape(b *binder, filters []filterInfo, edges []joinEdge, lefts []leftJoin) (plan.StarShape, map[int]dimSpec, bool) {
	if len(lefts) > 0 || len(b.tables) < 2 {
		return plan.StarShape{}, nil, false
	}
	// Driver: the largest fact-kind table; the largest table overall
	// when no base fact participates (CTE inputs are dimension-kind).
	fact := -1
	factIsFact := false
	for ti := range b.tables {
		isFact := b.tableAt(ti).tab.Def.Kind == schema.Fact
		better := fact < 0 ||
			(isFact && !factIsFact) ||
			(isFact == factIsFact && b.tableAt(ti).tab.NumRows() > b.tableAt(fact).tab.NumRows())
		if better {
			fact, factIsFact = ti, isFact
		}
	}
	dims := map[int]dimSpec{}
	for _, ed := range edges {
		var dimT int
		var factSide, dimSide *colExpr
		switch {
		case ed.aTbl == fact:
			dimT, factSide, dimSide = ed.bTbl, ed.aCol, ed.bCol
		case ed.bTbl == fact:
			dimT, factSide, dimSide = ed.aTbl, ed.bCol, ed.aCol
		default:
			// Dimension-to-dimension edge: snowflake arm — not a pure
			// star; the hash pipeline handles it.
			return plan.StarShape{}, nil, false
		}
		if _, dup := dims[dimT]; dup {
			// Two edges to the same dimension (e.g. sold and ship date
			// against date_dim twice would use two bindings; two edges to
			// ONE binding is a composite join) — not star shaped.
			return plan.StarShape{}, nil, false
		}
		inst := b.tableAt(dimT)
		pk := inst.tab.Def.PrimaryKey
		if len(pk) != 1 {
			return plan.StarShape{}, nil, false
		}
		pkIdx := inst.tab.Def.ColumnIndex(pk[0])
		if dimSide.off-inst.offset != pkIdx {
			return plan.StarShape{}, nil, false
		}
		dims[dimT] = dimSpec{table: dimT, factCol: factSide, pkCol: pkIdx}
	}
	// Every non-fact table must participate as a dimension.
	if len(dims) != len(b.tables)-1 {
		return plan.StarShape{}, nil, false
	}
	shape := plan.StarShape{
		FactName: b.tableAt(fact).binding,
		FactRows: b.tableAt(fact).tab.NumRows(),
	}
	for ti, spec := range dims {
		inst := b.tableAt(ti)
		// Exact filtered cardinality: dimensions are small, a counting
		// scan is cheaper than being wrong about the strategy.
		filtered := inst.tab.NumRows()
		hasPred := false
		for _, f := range filters {
			if f.table == ti {
				hasPred = true
			}
		}
		if hasPred {
			filtered = b.countFiltered(ti, filters)
		}
		spec.hasPred = hasPred
		dims[ti] = spec
		shape.Dims = append(shape.Dims, plan.DimInfo{
			Name:         inst.binding,
			Rows:         inst.tab.NumRows(),
			FilteredRows: filtered,
			PKJoin:       true,
		})
	}
	return shape, dims, true
}

// runStar executes the star transformation (§2.1): per filtered
// dimension, the qualifying surrogate keys are turned into a fact bitmap
// through the fact FK's bitmap index (bitmap access), the bitmaps are
// merged (AND), and only the qualifying fact rows are fetched and joined
// back to the dimensions by key lookup (bitmap join). The fact fetch
// runs in morsels over the qualifying row ids and emits (fact, dim...)
// row-id tuples.
func (e *Engine) runStar(b *binder, filters []filterInfo, edges []joinEdge, residual []bexpr, dims map[int]dimSpec, est float64, tr *Trace) (*rowSet, bool) {
	// Identify the fact: the one table not in dims.
	fact := -1
	for ti := range b.tables {
		if _, isDim := dims[ti]; !isDim {
			fact = ti
			break
		}
	}
	if fact < 0 {
		return nil, false
	}
	factInst := b.tableAt(fact)
	sp := b.qc.startOp("star", factInst.binding)
	b.qc.opRowsIn(sp, int64(factInst.tab.NumRows()))
	b.qc.opEst(est)
	defer b.qc.endOp(sp)

	// Index each dimension's qualifying rows by surrogate key, and
	// resolve the fact-side key column it is looked up by.
	type dimData struct {
		fk   colReader
		rows map[int64]int32 // sk -> base-table row id
	}
	tables := []int{fact}
	var dimDatas []dimData
	var accBitmap *index.Bitmap
	for ti, spec := range dims {
		fk, ok := b.kernelCol(fact, spec.factCol)
		if !ok {
			panic("exec: star join key is not a fact column")
		}
		dd := dimData{fk: *fk, rows: map[int64]int32{}}
		pk := newColReader(b.tableAt(ti), spec.pkCol)
		var keys []int64
		b.forEachFiltered(ti, filters, func(sel []int32) {
			for _, r := range sel {
				skVal := pk.value(r)
				if skVal.IsNull() {
					continue
				}
				sk := skVal.AsInt()
				if _, dup := dd.rows[sk]; !dup {
					dd.rows[sk] = r
					keys = append(keys, sk)
				}
			}
		})
		tables = append(tables, ti)
		dimDatas = append(dimDatas, dd)
		if spec.hasPred {
			factCol := spec.factCol.off - factInst.offset
			bi := e.bitmapIndex(factInst.tab, factCol)
			bm := bi.UnionOf(keys)
			if accBitmap == nil {
				accBitmap = bm
			} else {
				accBitmap.And(bm)
			}
		}
	}
	if accBitmap == nil {
		return nil, false // no filtered dimension; plan should not choose star
	}

	// Collect the qualifying fact row ids, then filter + join them back in
	// morsels. Per-morsel tuples concatenate in bitmap order, so the
	// output matches the serial ForEach walk exactly.
	var ids []int32
	accBitmap.ForEach(func(r int) bool {
		ids = append(ids, int32(r))
		return true
	})
	// Fact-local predicates run over the qualifying id list batch by
	// batch; survivors look up each dimension row by the fact's FK value.
	flat := scanIDsCollect(e, b.qc, b.compileFilter(fact, filters), ids, tr, func(sel, out []int32) []int32 {
		tuple := make([]int32, 1+len(dimDatas))
	nextRow:
		for _, r := range sel {
			tuple[0] = r
			for d := range dimDatas {
				fkVal := dimDatas[d].fk.value(r)
				dimRowID, found := dimDatas[d].rows[fkVal.AsInt()]
				if fkVal.IsNull() || !found {
					continue nextRow
				}
				tuple[1+d] = dimRowID
			}
			out = append(out, tuple...)
		}
		return out
	})
	rows := b.tupleRowSet(tables, flat)
	b.applyResidual(rows, residual)
	b.qc.opRowsOut(sp, int64(rows.n))
	return rows, true
}
