package exec

import (
	"runtime"
	"sort"
	"testing"

	"tpcds/internal/datagen"
	"tpcds/internal/plan"
	"tpcds/internal/storage"
)

// Row-id intermediates against brute force: every join shape that
// writes or reads a rowSet differently — outer misses (-1 ids), one
// table under two bindings, a CTE-backed instance, a cartesian step, an
// empty driver, a residual predicate gathered across tables — is run
// over randDB's f/d tables and compared with a nested-loop reference
// over the raw tables.

// renderSorted renders rows as sorted GroupKey strings (a multiset).
func renderSorted(rows [][]storage.Value) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		var key []byte
		for _, v := range row {
			key = v.AppendGroupKey(key)
		}
		out[i] = string(key)
	}
	sort.Strings(out)
	return out
}

// checkAgainstRef runs query on every engine configuration and compares
// the result, as a multiset, with want.
func checkAgainstRef(t *testing.T, db *storage.DB, query string, want [][]storage.Value) {
	t.Helper()
	checkModeAgainstRef(t, db, plan.Auto, query, want)
}

func checkModeAgainstRef(t *testing.T, db *storage.DB, mode plan.Mode, query string, want [][]storage.Value) {
	t.Helper()
	ref := renderSorted(want)
	e := New(db)
	e.SetMode(mode)
	res, tr, err := e.QueryTraced(query)
	if err != nil {
		t.Fatalf("%v: %v", mode, err)
	}
	if mode == plan.ForceStar && tr.Strategy != plan.StarTransform {
		t.Fatalf("forced star ran %v\n%s", tr.Strategy, query)
	}
	got := renderSorted(res.Rows)
	if len(got) != len(ref) {
		t.Fatalf("%v: %d rows, reference has %d\n%s", mode, len(got), len(ref), query)
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("%v: sorted row %d = %q, reference %q\n%s", mode, i, got[i], ref[i], query)
		}
	}
}

// Column positions of randDB's tables.
const (
	fK, fV, fM, fO = 0, 1, 2, 3
	dK, dG, dS     = 0, 1, 2
)

func intEq(a, b storage.Value) bool { return !a.IsNull() && !b.IsNull() && a.AsInt() == b.AsInt() }

func TestRowSetLeftJoinMiss(t *testing.T) {
	db := randDB(11, 150, 8)
	f, d := db.Table("f"), db.Table("d")
	// The extra ON condition makes some key matches misses; outer columns
	// of a miss must read as NULL through IS NULL, COALESCE and a
	// cross-table WHERE.
	var want [][]storage.Value
	for i := 0; i < f.NumRows(); i++ {
		matched := false
		emit := func(dk, ds, dg storage.Value) {
			isNull, coalesced := storage.Int(0), dg
			if dk.IsNull() {
				isNull, coalesced = storage.Int(1), storage.Int(-1)
			}
			// WHERE d_k IS NULL OR f_v > 20 (f_v NULL makes the right arm unknown).
			fv := f.Get(i, fV)
			if dk.IsNull() || (!fv.IsNull() && fv.AsInt() > 20) {
				want = append(want, []storage.Value{f.Get(i, fO), dk, ds, isNull, coalesced})
			}
		}
		for j := 0; j < d.NumRows(); j++ {
			if intEq(f.Get(i, fK), d.Get(j, dK)) && d.Get(j, dG).AsInt() > 1 {
				emit(d.Get(j, dK), d.Get(j, dS), d.Get(j, dG))
				matched = true
			}
		}
		if !matched {
			emit(storage.Null, storage.Null, storage.Null)
		}
	}
	checkAgainstRef(t, db, `
		SELECT f_o, d_k, d_s, CASE WHEN d_k IS NULL THEN 1 ELSE 0 END miss, COALESCE(d_g, -1) g
		FROM f LEFT OUTER JOIN d ON f_k = d_k AND d_g > 1
		WHERE d_k IS NULL OR f_v > 20`, want)
}

func TestRowSetTwoBindings(t *testing.T) {
	db := randDB(12, 150, 8)
	f, d := db.Table("f"), db.Table("d")
	var want [][]storage.Value
	for i := 0; i < f.NumRows(); i++ {
		for j := 0; j < d.NumRows(); j++ {
			for k := 0; k < d.NumRows(); k++ {
				if intEq(f.Get(i, fK), d.Get(j, dK)) && intEq(f.Get(i, fV), d.Get(k, dK)) {
					want = append(want, []storage.Value{f.Get(i, fO), d.Get(j, dS), d.Get(k, dG)})
				}
			}
		}
	}
	checkAgainstRef(t, db, `
		SELECT f_o, d1.d_s, d2.d_g FROM f, d d1, d d2
		WHERE f_k = d1.d_k AND f_v = d2.d_k`, want)
}

func TestRowSetCTEBackedTable(t *testing.T) {
	db := randDB(13, 150, 8)
	f, d := db.Table("f"), db.Table("d")
	perGroup := map[int64]int64{}
	for j := 0; j < d.NumRows(); j++ {
		perGroup[d.Get(j, dG).AsInt()]++
	}
	var want [][]storage.Value
	for i := 0; i < f.NumRows(); i++ {
		for j := 0; j < d.NumRows(); j++ {
			if intEq(f.Get(i, fK), d.Get(j, dK)) {
				want = append(want, []storage.Value{f.Get(i, fO), storage.Int(perGroup[d.Get(j, dG).AsInt()])})
			}
		}
	}
	checkAgainstRef(t, db, `
		WITH g AS (SELECT d_g gg, COUNT(*) cnt FROM d GROUP BY d_g)
		SELECT f_o, cnt FROM f, d, g WHERE f_k = d_k AND d_g = gg`, want)
}

func TestRowSetCartesian(t *testing.T) {
	db := randDB(14, 150, 8)
	f, d := db.Table("f"), db.Table("d")
	var want [][]storage.Value
	for i := 0; i < f.NumRows(); i++ {
		fv := f.Get(i, fV)
		if fv.IsNull() || fv.AsInt() >= 10 {
			continue
		}
		for j := 0; j < d.NumRows(); j++ {
			if d.Get(j, dG).AsInt() <= 2 {
				want = append(want, []storage.Value{f.Get(i, fO), d.Get(j, dK)})
			}
		}
	}
	checkAgainstRef(t, db, `SELECT f_o, d_k FROM f, d WHERE f_v < 10 AND d_g <= 2`, want)
}

func TestRowSetEmptyDriver(t *testing.T) {
	db := randDB(15, 150, 8)
	checkAgainstRef(t, db, `SELECT f_o, d_s FROM f, d WHERE f_k = d_k AND f_v > 1000`, nil)
	checkAgainstRef(t, db, `SELECT COUNT(*) c, SUM(f_m) m FROM f, d WHERE f_k = d_k AND f_v > 1000`,
		[][]storage.Value{{storage.Int(0), storage.Null}})
	checkAgainstRef(t, db, `SELECT f_o, d_k FROM f LEFT OUTER JOIN d ON f_k = d_k WHERE f_v > 1000`, nil)
}

func TestRowSetResidualPredicate(t *testing.T) {
	db := randDB(16, 150, 8)
	f, d := db.Table("f"), db.Table("d")
	var want [][]storage.Value
	for i := 0; i < f.NumRows(); i++ {
		for j := 0; j < d.NumRows(); j++ {
			fv := f.Get(i, fV)
			if intEq(f.Get(i, fK), d.Get(j, dK)) && d.Get(j, dG).AsInt() >= 1 &&
				!fv.IsNull() && fv.AsInt()+d.Get(j, dG).AsInt() > 50 {
				want = append(want, []storage.Value{f.Get(i, fO), d.Get(j, dK), f.Get(i, fM)})
			}
		}
	}
	// The dimension filter makes the shape star-eligible, so the same
	// query also runs through the star transformation's join-back.
	query := `SELECT f_o, d_k, f_m FROM f, d WHERE f_k = d_k AND d_g >= 1 AND f_v + d_g > 50`
	checkModeAgainstRef(t, db, plan.ForceHashJoin, query, want)
	checkModeAgainstRef(t, db, plan.ForceStar, query, want)
}

// TestJoinAllocationBudget guards the point of the rowSet: a join step
// must cost bytes per table, not a full-width value row. A fixed
// four-table hash pipeline at SF 0.002 — every output row survives all
// three probes — has to stay under the stated budget of heap bytes per
// output row; a full-width row per join step costs over 10 KB here.
func TestJoinAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("generates an SF 0.002 database")
	}
	const budgetBytesPerRow = 1024
	e := New(datagen.New(0.002, 7).GenerateAll())
	e.SetMode(plan.ForceHashJoin)
	query := `
		SELECT i_brand_id, s_store_name, hd_dep_count, ss_ext_sales_price
		FROM store_sales, item, store, household_demographics
		WHERE ss_item_sk = i_item_sk AND ss_store_sk = s_store_sk AND ss_hdemo_sk = hd_demo_sk`
	if _, err := e.Query(query); err != nil { // warm: plan, statistics
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := e.Query(query)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 1000 {
		t.Fatalf("only %d output rows; the guard needs a real join", len(res.Rows))
	}
	perRow := (after.TotalAlloc - before.TotalAlloc) / uint64(len(res.Rows))
	t.Logf("%d output rows, %d heap bytes per output row (budget %d)", len(res.Rows), perRow, budgetBytesPerRow)
	if perRow > budgetBytesPerRow {
		t.Errorf("4-table join allocates %d bytes per output row, budget %d: is an operator materialising full-width rows again?", perRow, budgetBytesPerRow)
	}
}
