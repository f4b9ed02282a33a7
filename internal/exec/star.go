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
}

// starShape recognizes the star query shape: one fact (the largest
// table) joined to dimensions, each on a single integer-class equality
// edge hitting the dimension's one-column primary key, with no
// dimension-to-dimension edges and no outer joins. Returns the optimizer
// shape summary, the fact's table index and the executable dimension
// specs — both lists in ascending table order, so the float selectivity
// product, the plan decision and the trace repeat on every run.
func (e *Engine) starShape(b *binder, filters []filterInfo, edges []joinEdge, lefts []leftJoin) (plan.StarShape, int, []dimSpec, bool) {
	none := func() (plan.StarShape, int, []dimSpec, bool) { return plan.StarShape{}, -1, nil, false }
	if len(lefts) > 0 || len(b.tables) < 2 {
		return none()
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
	specs := make([]*dimSpec, len(b.tables))
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
			return none()
		}
		if dimT < 0 || dimT >= len(specs) || specs[dimT] != nil {
			// Two edges to the same dimension (e.g. sold and ship date
			// against date_dim twice would use two bindings; two edges to
			// ONE binding is a composite join) — not star shaped.
			return none()
		}
		inst := b.tableAt(dimT)
		pk := inst.tab.Def.PrimaryKey
		if len(pk) != 1 {
			return none()
		}
		pkIdx := inst.tab.Def.ColumnIndex(pk[0])
		// The bitmap index and the key lookup both read raw int64 keys (a
		// CTE's nominal key column can be of any type).
		if dimSide.off-inst.offset != pkIdx || !intJoinKey([]*colExpr{factSide}, []*colExpr{dimSide}) {
			return none()
		}
		specs[dimT] = &dimSpec{table: dimT, factCol: factSide, pkCol: pkIdx}
	}
	var dims []dimSpec
	for ti, spec := range specs {
		if ti == fact {
			continue
		}
		if spec == nil {
			// Every non-fact table must participate as a dimension.
			return none()
		}
		dims = append(dims, *spec)
	}
	// Every count is exact: a dimension answered from value bitmaps is
	// counted by popcount with no ids listed; any other runs its filter,
	// and the selection is the one the chosen strategy joins.
	shape := plan.StarShape{FactName: b.tableAt(fact).binding, FactRows: b.tableAt(fact).tab.NumRows()}
	for _, d := range dims {
		inst := b.tableAt(d.table)
		n := b.filterRows(d.table, filters, true).n
		shape.Dims = append(shape.Dims, plan.DimInfo{Name: inst.binding, Rows: inst.tab.NumRows(), FilteredRows: n, PKJoin: true})
	}
	return shape, fact, dims, true
}

// runStar executes the star transformation (§2.1): per filtered
// dimension, the qualifying surrogate keys are turned into a fact bitmap
// through the fact FK's bitmap index (bitmap access), the bitmaps are
// merged (AND), and only the qualifying fact rows are fetched and joined
// back to the dimensions by key lookup (bitmap join). The fact fetch
// walks the qualifying row ids in order and emits (fact, dim...) row-id
// tuples.
func (e *Engine) runStar(b *binder, filters []filterInfo, residual []bexpr, fact int, dims []dimSpec, est float64) (*rowSet, bool) {
	factInst := b.tableAt(fact)
	sp := b.qc.startOp("star", factInst.binding)
	b.qc.opRowsIn(sp, int64(factInst.tab.NumRows()))
	b.qc.opEst(est)
	defer b.qc.endOp(sp)

	// Index each dimension's selection by surrogate key (first row of a
	// key wins), and resolve the fact-side key column it is looked up by.
	type dimData struct {
		fk   keySource
		rows *index.HashIndex // sk -> base-table row id
	}
	tables := []int{fact}
	var dimDatas []dimData
	var merge index.Merge // at most one scratch bitmap, shared by the dimensions after the first
	for _, spec := range dims {
		inst, sel := b.tableAt(spec.table), b.selection(spec.table, filters)
		var rows *index.HashIndex
		if sel.all {
			rows = b.baseIndex(spec.table, spec.pkCol)
		}
		if rows == nil {
			b.readAll(sel)
			keys, ids := stagePairs(b.qc, sel, (&keySource{col: newColReader(inst, spec.pkCol)}).intAt)
			rows = index.BuildHashIndexPairs(keys, ids)
			if !sel.all {
				merge.AndAny(e.bitmapIndex(factInst.tab, spec.factCol.off-factInst.offset), keys, false)
			}
		}
		fk, ok := b.kernelCol(fact, spec.factCol)
		if !ok {
			panic("exec: star join key is not a fact column")
		}
		tables = append(tables, spec.table)
		dimDatas = append(dimDatas, dimData{fk: keySource{col: *fk}, rows: rows})
	}
	accBitmap := merge.Result()
	if accBitmap == nil {
		return nil, false // no filtered dimension; plan should not choose star
	}

	// Collect the qualifying fact row ids, in bitmap order. Fact-local
	// predicates run over the id list batch by batch; survivors look up
	// each dimension row by the fact's FK value.
	ids := accBitmap.AppendIDs(make([]int32, 0, accBitmap.Count()))
	var flat []int32
	tuple := make([]int32, 1+len(dimDatas))
	b.compileFilter(tablePreds(fact, filters)).scan(b.qc, batchLen, ids, 0, len(ids), func(sel []int32) {
	nextRow:
		for _, r := range sel {
			tuple[0] = r
			for d := range dimDatas {
				fk, ok := dimDatas[d].fk.intAt(r)
				if !ok {
					continue nextRow
				}
				dimRow := dimDatas[d].rows.First(fk)
				if dimRow < 0 {
					continue nextRow
				}
				tuple[1+d] = dimRow
			}
			flat = append(flat, tuple...)
		}
	})
	// The merged bitmaps and the id list stay live until the tuples are
	// split.
	staged := merge.Bytes() + int64(len(ids))*4
	b.qc.growScratch(staged)
	rows := b.tupleRowSet(tables, flat)
	b.qc.shrinkScratch(staged)
	b.applyResidual(rows, residual)
	b.qc.opRowsOut(sp, int64(rows.n))
	return rows, true
}
