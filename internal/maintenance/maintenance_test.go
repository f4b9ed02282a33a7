package maintenance

import (
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"tpcds/internal/datagen"
	"tpcds/internal/exec"
	"tpcds/internal/obs"
	"tpcds/internal/plan"
	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

func freshEngine(t *testing.T) *exec.Engine {
	t.Helper()
	return exec.New(datagen.New(0.0005, 21).GenerateAll())
}

func TestGenerateRefreshDeterministic(t *testing.T) {
	eng := freshEngine(t)
	a, err := GenerateRefresh(eng.DB(), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateRefresh(eng.DB(), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Sales["store"]) != len(b.Sales["store"]) ||
		a.Sales["store"][0] != b.Sales["store"][0] {
		t.Error("refresh generation not deterministic")
	}
	// The FULL set must match, DimUpdates order included: the generator
	// draws from one sequential RNG stream, so iterating the updatable
	// dimensions in map order made every run-2 query result differ from
	// process to process (the cross-planner digest diff caught it).
	if !reflect.DeepEqual(a, b) {
		t.Error("refresh sets differ between identically-seeded generations")
	}
	c, err := GenerateRefresh(eng.DB(), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.DeleteRange["store"] == c.DeleteRange["store"] {
		t.Error("different refresh runs picked identical delete ranges")
	}
}

func TestTwelveOperations(t *testing.T) {
	eng := freshEngine(t)
	rs, err := GenerateRefresh(eng.DB(), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Run(eng, rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Ops) != 12 {
		t.Errorf("maintenance ran %d operations, paper defines 12", len(stats.Ops))
	}
	names := map[string]bool{}
	for _, op := range stats.Ops {
		names[op.Name] = true
	}
	for _, want := range []string{
		"update_history_dims", "update_nonhistory_dims",
		"delete_store", "delete_catalog", "delete_web",
		"insert_store_sales", "insert_catalog_sales", "insert_web_sales",
		"insert_store_returns", "insert_catalog_returns", "insert_web_returns",
		"refresh_inventory",
	} {
		if !names[want] {
			t.Errorf("operation %s missing", want)
		}
	}
	if stats.FactInserts == 0 || stats.DimRevisions == 0 || stats.DimInPlace == 0 {
		t.Errorf("stats show no work: %+v", stats)
	}
	if stats.Total() <= 0 {
		t.Error("total duration not recorded")
	}
}

// TestHistoryKeepingUpdate verifies Figure 9: after the update the old
// revision is closed, a new open revision exists with the changed value
// and a fresh surrogate key.
func TestHistoryKeepingUpdate(t *testing.T) {
	eng := freshEngine(t)
	db := eng.DB()
	item := db.Table("item")
	bkCol := item.Def.ColumnIndex("i_item_id")
	endCol := item.Def.ColumnIndex("i_rec_end_date")
	priceCol := item.Def.ColumnIndex("i_current_price")
	// Pick the first item's business key.
	bk := item.Get(0, bkCol).S
	before := item.NumRows()
	updateDate := storage.DateSK(storage.DaysFromYMD(2003, 2, 1))
	rs := &RefreshSet{
		Sales: map[string][]StagedSale{}, Returns: map[string][]StagedReturn{},
		DeleteRange:  map[string][2]int64{},
		UpdateDateSK: updateDate,
		DimUpdates: []DimUpdate{{
			Table: "item", BusinessKey: bk,
			Set: map[string]storage.Value{"i_current_price": storage.Float(123.45)},
		}},
	}
	if _, err := Run(eng, rs); err != nil {
		t.Fatal(err)
	}
	if item.NumRows() != before+1 {
		t.Fatalf("history update should add one revision: %d -> %d", before, item.NumRows())
	}
	// Exactly one open revision for bk, holding the new price.
	open := 0
	for r := 0; r < item.NumRows(); r++ {
		if item.Get(r, bkCol).S != bk {
			continue
		}
		if item.Get(r, endCol).IsNull() {
			open++
			if got := item.Get(r, priceCol).AsFloat(); got != 123.45 {
				t.Errorf("open revision price = %v, want 123.45", got)
			}
		}
	}
	if open != 1 {
		t.Errorf("open revisions for %s = %d, want 1", bk, open)
	}
}

// TestNonHistoryUpdate verifies Figure 8: in-place update, no new rows.
func TestNonHistoryUpdate(t *testing.T) {
	eng := freshEngine(t)
	db := eng.DB()
	cust := db.Table("customer")
	bk := cust.Get(3, cust.Def.ColumnIndex("c_customer_id")).S
	before := cust.NumRows()
	rs := &RefreshSet{
		Sales: map[string][]StagedSale{}, Returns: map[string][]StagedReturn{},
		DeleteRange:  map[string][2]int64{},
		UpdateDateSK: storage.DateSK(storage.DaysFromYMD(2003, 2, 1)),
		DimUpdates: []DimUpdate{{
			Table: "customer", BusinessKey: bk,
			Set: map[string]storage.Value{"c_email_address": storage.Str("new@example.com")},
		}},
	}
	if _, err := Run(eng, rs); err != nil {
		t.Fatal(err)
	}
	if cust.NumRows() != before {
		t.Errorf("non-history update changed row count %d -> %d", before, cust.NumRows())
	}
	emailCol := cust.Def.ColumnIndex("c_email_address")
	if got := cust.Get(3, emailCol).S; got != "new@example.com" {
		t.Errorf("email = %q after update", got)
	}
}

// TestClusteredDeleteAndInsert verifies the delete range empties and the
// staged inserts land with surrogate keys resolved (Figure 10).
func TestClusteredDeleteAndInsert(t *testing.T) {
	eng := freshEngine(t)
	db := eng.DB()
	rs, err := GenerateRefresh(db, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	ss := db.Table("store_sales")
	stats, err := Run(eng, rs)
	if err != nil {
		t.Fatal(err)
	}
	// No surviving store_sales rows outside the staged inserts may fall
	// inside the deleted range... the staged inserts themselves DO fall
	// inside it (similar data replaces deleted data), so instead verify:
	// every row in the range carries an order number above the
	// pre-refresh maximum (i.e. is a fresh insert).
	rng := rs.DeleteRange["store"]
	dateCol := ss.Def.ColumnIndex("ss_sold_date_sk")
	orderCol := ss.Def.ColumnIndex("ss_ticket_number")
	minNewOrder := rs.Sales["store"][0].Order
	for r := 0; r < ss.NumRows(); r++ {
		d := ss.Get(r, dateCol)
		if d.IsNull() || d.AsInt() < rng[0] || d.AsInt() > rng[1] {
			continue
		}
		if ss.Get(r, orderCol).AsInt() < minNewOrder {
			t.Fatalf("row %d in deleted range has pre-refresh order number", r)
		}
	}
	if stats.FactDeletes == 0 {
		t.Error("clustered delete removed nothing")
	}
	// Inserted rows joined item business keys to surrogate keys: verify
	// via the engine that the new rows join to item.
	res, err := eng.Query(`SELECT COUNT(*) c FROM store_sales, item
		WHERE ss_item_sk = i_item_sk AND ss_ticket_number >= ` +
		storage.Int(minNewOrder).String())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() == 0 {
		t.Error("inserted facts do not join to item dimension")
	}
}

// TestSurrogateKeysResolveToOpenRevision: inserting a sale for an item
// whose dimension row was just revised must use the NEW surrogate key.
func TestSurrogateKeysResolveToOpenRevision(t *testing.T) {
	eng := freshEngine(t)
	db := eng.DB()
	item := db.Table("item")
	bk := item.Get(0, item.Def.ColumnIndex("i_item_id")).S
	rs := &RefreshSet{
		Sales: map[string][]StagedSale{
			"store": {{
				SoldDateSK: storage.DateSK(storage.DaysFromYMD(2001, 5, 5)),
				SoldTimeSK: 1, ItemID: bk,
				CustomerID: db.Table("customer").Get(0, 1).S,
				Order:      9_999_999, Quantity: 2, SalesPrice: 10, Wholesale: 5,
			}},
		},
		Returns: map[string][]StagedReturn{}, DeleteRange: map[string][2]int64{},
		UpdateDateSK: storage.DateSK(storage.DaysFromYMD(2003, 3, 1)),
		DimUpdates: []DimUpdate{{
			Table: "item", BusinessKey: bk,
			Set: map[string]storage.Value{"i_current_price": storage.Float(77)},
		}},
	}
	if _, err := Run(eng, rs); err != nil {
		t.Fatal(err)
	}
	// The update ran before the insert, so the fact must reference the
	// revision created by the update (price 77, rec_end NULL).
	res, err := eng.Query(`SELECT i_current_price FROM store_sales, item
		WHERE ss_item_sk = i_item_sk AND ss_ticket_number = 9999999`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsFloat() != 77 {
		t.Fatalf("inserted fact resolves to %+v, want the open revision (price 77)", res.Rows)
	}
}

// TestRevisionMovesKey: the run's business key index follows its own
// revisions. Two updates of one item in one refresh set revise the
// revision the first one opened, so one revision stays open, with the
// second price and the largest surrogate key, and the staged sale
// resolves to it.
func TestRevisionMovesKey(t *testing.T) {
	eng := freshEngine(t)
	db := eng.DB()
	item := db.Table("item")
	bk := item.Get(0, item.Def.ColumnIndex("i_item_id")).S
	before := item.NumRows()
	update := func(price float64) DimUpdate {
		return DimUpdate{Table: "item", BusinessKey: bk, Set: map[string]storage.Value{"i_current_price": storage.Float(price)}}
	}
	rs := &RefreshSet{
		Sales: map[string][]StagedSale{
			"store": {{
				SoldDateSK: storage.DateSK(storage.DaysFromYMD(2001, 5, 5)),
				SoldTimeSK: 1, ItemID: bk,
				CustomerID: db.Table("customer").Get(0, 1).S,
				Order:      9_999_999, Quantity: 2, SalesPrice: 10, Wholesale: 5,
			}},
		},
		Returns: map[string][]StagedReturn{}, DeleteRange: map[string][2]int64{},
		UpdateDateSK: storage.DateSK(storage.DaysFromYMD(2003, 3, 1)),
		DimUpdates:   []DimUpdate{update(77), update(88)},
	}
	if _, err := Run(eng, rs); err != nil {
		t.Fatal(err)
	}
	if item.NumRows() != before+2 {
		t.Fatalf("two revisions should add two rows: %d -> %d", before, item.NumRows())
	}
	res, err := eng.Query(`SELECT i_item_sk, i_current_price FROM item
		WHERE i_item_id = '` + bk + `' AND i_rec_end_date IS NULL`)
	if err != nil {
		t.Fatal(err)
	}
	last := item.Get(item.NumRows()-1, 0)
	if len(res.Rows) != 1 || res.Rows[0][0] != last || res.Rows[0][1].AsFloat() != 88 {
		t.Fatalf("open revisions of %s: %v, want the last row (sk %v, price 88)", bk, res.Rows, last)
	}
	res, err = eng.Query(`SELECT ss_item_sk FROM store_sales WHERE ss_ticket_number = 9999999`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != last {
		t.Fatalf("the staged sale resolves to %v, want the open revision %v", res.Rows, last)
	}
}

// TestKeyIndexSkipsClosedRevisions: a history-keeping dimension's key
// maps to its open revision even when a closed revision of the entity
// comes after it in the table (the generator and Figure 9 always
// append the open one last, so only a table edited otherwise shows
// it).
func TestKeyIndexSkipsClosedRevisions(t *testing.T) {
	item := freshEngine(t).DB().Table("item")
	bkCol, endCol := item.Def.ColumnIndex("i_item_id"), item.Def.ColumnIndex("i_rec_end_date")
	open := 0
	for !item.Get(open, endCol).IsNull() {
		open++
	}
	closed := item.Row(open)
	closed[endCol] = storage.DateV(storage.DaysFromYMD(2003, 1, 1))
	item.Append(closed)
	if got := bkIndex(item)[item.Get(open, bkCol).S]; got != open {
		t.Errorf("key index maps %s to row %d, want its open revision, row %d", item.Get(open, bkCol).S, got, open)
	}
}

// TestRefreshInventory: operation 12 replaces every inventory snapshot
// in the store channel's deleted range with one for the same week,
// item and warehouse, appended in the order it had, with a quantity
// derived from its position, and leaves the row count as it was. (The
// generated inventory covers only its first weeks at small scale
// factors, so a random refresh range seldom meets it.)
func TestRefreshInventory(t *testing.T) {
	eng := freshEngine(t)
	inv := eng.DB().Table("inventory")
	dates, _ := inv.ScanInt64(0)
	week := dates[0]
	type snapshot struct{ date, item, wh int64 }
	var kept, replaced []snapshot
	for r := 0; r < inv.NumRows(); r++ {
		s := snapshot{inv.Get(r, 0).I, inv.Get(r, 1).I, inv.Get(r, 2).I}
		if s.date == week {
			replaced = append(replaced, s)
		} else {
			kept = append(kept, s)
		}
	}
	rows := inv.NumRows()
	rs := &RefreshSet{
		Sales: map[string][]StagedSale{}, Returns: map[string][]StagedReturn{},
		DeleteRange:  map[string][2]int64{"store": {week, week}},
		UpdateDateSK: storage.DateSK(storage.DaysFromYMD(2003, 1, 1)),
	}
	if _, err := Run(eng, rs); err != nil {
		t.Fatal(err)
	}
	if inv.NumRows() != rows || len(replaced) == 0 {
		t.Fatalf("inventory holds %d rows after replacing %d, had %d", inv.NumRows(), len(replaced), rows)
	}
	want := append(kept, replaced...)
	for r := 0; r < rows; r++ {
		got := snapshot{inv.Get(r, 0).I, inv.Get(r, 1).I, inv.Get(r, 2).I}
		if got != want[r] {
			t.Fatalf("row %d holds %+v, want %+v", r, got, want[r])
		}
		if i := r - len(kept); i >= 0 {
			if q, want := inv.Get(r, 3), (got.item*31+got.wh*7+int64(i))%1000+1; q.I != want || q.IsNull() {
				t.Fatalf("replaced row %d has quantity %v, want %d", r, q, want)
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	eng := freshEngine(t)
	rs := &RefreshSet{
		Sales: map[string][]StagedSale{
			"store": {{ItemID: "NO_SUCH_ITEM", CustomerID: "NO_SUCH_CUSTOMER", Quantity: 1}},
		},
		Returns: map[string][]StagedReturn{}, DeleteRange: map[string][2]int64{},
		UpdateDateSK: storage.DateSK(storage.DaysFromYMD(2003, 1, 1)),
	}
	if _, err := Run(eng, rs); err == nil || !strings.Contains(err.Error(), "unknown item") {
		t.Errorf("unknown business key should fail, got %v", err)
	}
	rs2 := &RefreshSet{
		Sales: map[string][]StagedSale{}, Returns: map[string][]StagedReturn{},
		DeleteRange:  map[string][2]int64{},
		UpdateDateSK: storage.DateSK(storage.DaysFromYMD(2003, 1, 1)),
		DimUpdates:   []DimUpdate{{Table: "nope", BusinessKey: "x"}},
	}
	if _, err := Run(eng, rs2); err == nil {
		t.Error("unknown dimension should fail")
	}
}

// TestSecondRunComparability (§3.3.2): after a maintenance run the SCD
// invariants still hold — at most one open revision per business key —
// so Query Run 2 sees the same data characteristics as Run 1.
func TestSecondRunComparability(t *testing.T) {
	eng := freshEngine(t)
	db := eng.DB()
	rs, err := GenerateRefresh(db, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(eng, rs); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"item", "store", "web_site", "web_page", "call_center"} {
		tab := db.Table(name)
		if tab.Def.SCD != schema.HistoryKeeping {
			t.Fatalf("%s not history keeping?", name)
		}
		bkCol := tab.Def.ColumnIndex(tab.Def.BusinessKey)
		endCol := -1
		for i, c := range tab.Def.Columns {
			if strings.HasSuffix(c.Name, "rec_end_date") {
				endCol = i
			}
		}
		open := map[string]int{}
		for r := 0; r < tab.NumRows(); r++ {
			if tab.Get(r, endCol).IsNull() {
				open[tab.Get(r, bkCol).S]++
			}
		}
		for bk, n := range open {
			if n != 1 {
				t.Errorf("%s %s has %d open revisions after maintenance", name, bk, n)
			}
		}
	}
}

// TestWarmEngineEqualsColdAfterRefresh: the executor probes the
// engine's cached hash index wherever a join's build side is an
// unfiltered base table on one integer column, and answers conjuncts on
// customer_demographics from the engine's cached value bitmaps. After
// maintenance has revised dimensions and deleted from and inserted into
// the facts, an engine that built those indexes before the refresh must
// answer exactly as an engine built afterwards on the same tables does,
// and as a cold engine held to the hash pipeline (SetMode) does, so the
// star transformation equals the hash joins after every refresh — for
// two refresh sets in a row.
func TestWarmEngineEqualsColdAfterRefresh(t *testing.T) {
	warm := freshEngine(t)
	reg := obs.NewRegistry()
	warm.SetMetrics(reg)
	// Build sides: item and store (history keeping: revisions are
	// appended), promotion (updated in place), store_returns and
	// catalog_returns (facts with clustered deletes and inserts).
	queries := []string{
		`SELECT ss_ticket_number, ss_item_sk, i_item_id, i_current_price FROM store_sales, item
			WHERE ss_item_sk = i_item_sk`,
		`SELECT ss_ticket_number, s_store_id, p_promo_id FROM store_sales, store, promotion
			WHERE ss_store_sk = s_store_sk AND ss_promo_sk = p_promo_sk`,
		`SELECT ss_ticket_number, sr_return_quantity FROM store_sales, store_returns
			WHERE ss_ticket_number = sr_ticket_number`,
		`SELECT cs_order_number, cr_return_quantity FROM catalog_sales, catalog_returns
			WHERE cs_order_number = cr_order_number`,
	}
	// A filtered index lookup join onto item: a few fact rows probe the
	// key index, and only the matched item rows are filtered. (The
	// unfiltered date_dim, too large to be a star dimension, sends the
	// query down the hash pipeline.)
	const lookup = `SELECT ss_ticket_number, ss_item_sk, i_item_id, i_current_price, d_date FROM store_sales, item, date_dim
			WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk AND ss_ticket_number <= 8 AND i_rec_end_date IS NULL`
	// Four dictionary-column conjuncts on customer_demographics (1.92 M
	// rows at every scale factor), each answered from value bitmaps. No
	// maintenance operation touches the table, so after each refresh an
	// in-place update stands in for one: it moves a row demo skips to an
	// education status no row held before; the epoch check must see it,
	// as it sees every change.
	const demo = `SELECT cd_demo_sk, cd_education_status FROM customer_demographics
			WHERE cd_education_status IN ('Unknown', 'Revised 1', 'Revised 2') AND cd_marital_status = 'W'
			AND cd_gender = 'M' AND cd_credit_rating = 'High Risk'`
	// A star over catalog_sales with two filtered dimensions. The fact's
	// foreign-key indexes are warmed as the load test warms them, and
	// every refresh deletes and inserts catalog_sales rows and revises
	// item, so the warm engine must rebuild what it cached.
	const star = `SELECT cs_order_number, cs_item_sk, i_item_id, d_date FROM catalog_sales, item, date_dim
			WHERE cs_item_sk = i_item_sk AND cs_sold_date_sk = d_date_sk AND d_year = 2000 AND d_moy = 12
			AND i_category IN ('Music', 'Books', 'Home')`
	for _, fk := range warm.DB().Table("catalog_sales").Def.ForeignKeys {
		warm.WarmBitmapIndex("catalog_sales", fk.Column)
	}
	checked := append(queries, lookup, demo, star)
	warm.SetProfiling(true)
	run := func(eng *exec.Engine, q string) *exec.Result {
		t.Helper()
		res, err := eng.Query(q)
		if err != nil {
			t.Fatalf("%v\n%s", err, q)
		}
		return res
	}
	// runDemo runs demo on the warm engine and returns its rows and the
	// rows its scan of customer_demographics read: none when the cached
	// bitmaps answered it.
	runDemo := func() ([][]storage.Value, int64) {
		t.Helper()
		res, tr, err := warm.QueryTraced(demo)
		if err != nil {
			t.Fatal(err)
		}
		read := int64(-1)
		tr.Profile.Walk(func(n *obs.OpProfile) {
			if n.Name == "scan customer_demographics" {
				read = n.RowsIn
			}
		})
		return res.Rows, read
	}
	for _, q := range checked {
		run(warm, q) // builds the indexes the refresh will outdate
	}
	built := reg.Counter("exec_hash_build_rows").Value()
	for _, q := range queries {
		run(warm, q)
	}
	if n := reg.Counter("exec_hash_build_rows").Value() - built; n != 0 {
		t.Fatalf("%d rows hashed by a repeat of the queries; these joins are meant to probe the engine's indexes", n)
	}
	if _, read := runDemo(); read != 0 {
		t.Fatalf("a repeat of the demographics query read %d rows; its conjuncts are meant to be answered from cached bitmaps", read)
	}
	cd := warm.DB().Table("customer_demographics")
	col := func(name string) int { return cd.Def.ColumnIndex(name) }
	for refresh := 1; refresh <= 2; refresh++ {
		rs, err := GenerateRefresh(warm.DB(), 5, refresh)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(warm, rs); err != nil {
			t.Fatal(err)
		}
		row := 0
		for ; cd.Get(row, col("cd_marital_status")).S != "W" || cd.Get(row, col("cd_gender")).S != "M" ||
			cd.Get(row, col("cd_credit_rating")).S != "High Risk" || cd.Get(row, col("cd_education_status")).S == "Unknown"; row++ {
		}
		revised := storage.Str("Revised " + strconv.Itoa(refresh))
		cd.SetValue(row, col("cd_education_status"), revised)
		cold := exec.New(warm.DB())
		coldHash := exec.New(warm.DB())
		coldHash.SetMode(plan.ForceHashJoin)
		// The refresh revised item, so the lookup rebuilds its key index.
		before := reg.Counter("exec_hash_build_rows").Value()
		_, tr, err := warm.QueryTraced(lookup)
		if err != nil {
			t.Fatal(err)
		}
		steps := map[string]bool{}
		tr.Profile.Walk(func(n *obs.OpProfile) { steps[n.Name] = true })
		if !steps["probe item"] || steps["build item"] || steps["stream item"] || steps["star store_sales"] {
			t.Fatalf("refresh %d: item is not joined by index lookup\n%s", refresh, tr.Profile)
		}
		if reg.Counter("exec_hash_build_rows").Value() == before {
			t.Errorf("refresh %d: the lookup probed an index the refresh outdated", refresh)
		}
		_, tr, err = warm.QueryTraced(star)
		if err != nil {
			t.Fatal(err)
		}
		steps = map[string]bool{}
		tr.Profile.Walk(func(n *obs.OpProfile) { steps[n.Name] = true })
		if !steps["star catalog_sales"] {
			t.Fatalf("refresh %d: the catalog_sales query did not run as a star\n%s", refresh, tr.Profile)
		}
		rows, read := runDemo()
		if read == 0 {
			t.Errorf("refresh %d: the demographics query read no rows after the update; it used outdated bitmaps", refresh)
		}
		if !slices.ContainsFunc(rows, func(r []storage.Value) bool { return r[0] == cd.Get(row, col("cd_demo_sk")) && r[1] == revised }) {
			t.Errorf("refresh %d: the demographics query missed the row moved to %q", refresh, revised.S)
		}
		for _, q := range checked {
			got, want := run(warm, q), run(cold, q)
			if len(want.Rows) == 0 {
				t.Fatalf("refresh %d: empty result proves nothing\n%s", refresh, q)
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Errorf("refresh %d: warm engine (%d rows) differs from cold engine (%d rows)\n%s",
					refresh, len(got.Rows), len(want.Rows), q)
			}
			if hash := run(coldHash, q); !reflect.DeepEqual(hash.Rows, want.Rows) {
				t.Errorf("refresh %d: cold hash-only engine (%d rows) differs from cold engine (%d rows)\n%s",
					refresh, len(hash.Rows), len(want.Rows), q)
			}
		}
	}

	// An in-place update to a string no row of the column ever held: the
	// value enters the column's dictionary after the warm engine planned
	// and ran the query that now has to find it.
	const byState = `SELECT s_store_sk, s_state FROM store WHERE s_state = 'ZZ'`
	if n := len(run(warm, byState).Rows); n != 0 {
		t.Fatalf("%d stores in state ZZ before the update", n)
	}
	store := warm.DB().Table("store")
	last := store.NumRows() - 1
	store.SetValue(last, store.Def.ColumnIndex("s_state"), storage.Str("ZZ"))
	want := [][]storage.Value{{store.Get(last, store.Def.ColumnIndex("s_store_sk")), storage.Str("ZZ")}}
	if got := run(warm, byState).Rows; !reflect.DeepEqual(got, want) {
		t.Errorf("after s_state := 'ZZ' on the last store: %v, want %v", got, want)
	}

	// A column's first NULL. date_dim.d_moy and catalog_sales.cs_item_sk
	// have never held one, and the warm engine holds value postings and
	// statistics over d_moy (star filters d_moy = 12) and fact postings
	// over cs_item_sk. One December 2000 date loses its month, and a copy
	// of a catalog_sales row sold on another enters with a NULL item.
	dd, cs := warm.DB().Table("date_dim"), warm.DB().Table("catalog_sales")
	moy, year := dd.Def.ColumnIndex("d_moy"), dd.Def.ColumnIndex("d_year")
	itemSK, sold, order := cs.Def.ColumnIndex("cs_item_sk"), cs.Def.ColumnIndex("cs_sold_date_sk"), cs.Def.ColumnIndex("cs_order_number")
	for _, c := range []*storage.Column{dd.Col(moy), cs.Col(itemSK)} {
		if _, _, _, _, _, _, nulls := c.Raw(); nulls != nil {
			t.Fatal("d_moy or cs_item_sk has held a NULL before the test gives it one")
		}
	}
	dateRow := map[int64]int{}
	for r := 0; r < dd.NumRows(); r++ {
		dateRow[dd.Get(r, dd.Def.ColumnIndex("d_date_sk")).I] = r
	}
	var december []int // the December 2000 rows of date_dim that catalog_sales rows were sold on, one catalog_sales row each
	soldOn := map[int]int{}
	for r := 0; r < cs.NumRows(); r++ {
		d, ok := dateRow[cs.Get(r, sold).I]
		if _, seen := soldOn[d]; ok && !seen && !cs.Get(r, sold).IsNull() && dd.Get(d, year).I == 2000 && dd.Get(d, moy).I == 12 {
			december, soldOn[d] = append(december, d), r
		}
	}
	if len(december) < 2 {
		t.Fatalf("catalog_sales sold on %d December 2000 dates, want 2", len(december))
	}
	nullQueries := []string{
		star,
		`SELECT d_date_sk, d_year FROM date_dim WHERE d_moy IS NULL`,
		`SELECT d_date_sk, d_moy FROM date_dim WHERE d_year = 2000 AND d_moy >= 11`,
		`SELECT cs_order_number, cs_sold_date_sk FROM catalog_sales WHERE cs_item_sk IS NULL`,
		`SELECT cs_order_number, i_item_id FROM catalog_sales, item WHERE cs_item_sk = i_item_sk AND i_category IN ('Music', 'Books', 'Home')`,
		`SELECT cs_order_number, cs_item_sk, d_moy FROM catalog_sales, date_dim WHERE cs_sold_date_sk = d_date_sk AND d_year = 2000 AND d_moy >= 11`,
	}
	for _, q := range nullQueries {
		run(warm, q) // postings, statistics and plans on the NULL-free columns
	}
	dd.SetValue(december[0], moy, storage.Null)
	copied := cs.Row(soldOn[december[1]])
	copied[itemSK], copied[order] = storage.Null, storage.Int(1<<40)
	cs.Append(copied)
	for _, c := range []*storage.Column{dd.Col(moy), cs.Col(itemSK)} {
		if _, _, _, _, _, _, nulls := c.Raw(); len(nulls) != c.Len() {
			t.Fatalf("after the first NULL: %d null entries for %d rows", len(nulls), c.Len())
		}
	}
	cold, coldHash := exec.New(warm.DB()), exec.New(warm.DB())
	coldHash.SetMode(plan.ForceHashJoin)
	for _, q := range nullQueries {
		got, want := run(warm, q), run(cold, q)
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("after the first NULLs: warm engine (%d rows) differs from cold engine (%d rows)\n%s", len(got.Rows), len(want.Rows), q)
		}
		if hash := run(coldHash, q); !reflect.DeepEqual(hash.Rows, want.Rows) {
			t.Errorf("after the first NULLs: cold hash-only engine (%d rows) differs from cold engine (%d rows)\n%s", len(hash.Rows), len(want.Rows), q)
		}
	}
	if got := run(warm, nullQueries[1]).Rows; len(got) != 1 || got[0][0] != dd.Get(december[0], dd.Def.ColumnIndex("d_date_sk")) {
		t.Errorf("d_moy IS NULL: %v, want the one date whose month was cleared", got)
	}
	if got := run(warm, nullQueries[3]).Rows; len(got) != 1 || got[0][0] != storage.Int(1<<40) {
		t.Errorf("cs_item_sk IS NULL: %v, want the one inserted row", got)
	}
	for _, q := range []string{star, nullQueries[4]} {
		if slices.ContainsFunc(run(warm, q).Rows, func(r []storage.Value) bool { return r[0] == storage.Int(1<<40) }) {
			t.Errorf("the row with a NULL cs_item_sk joined item\n%s", q)
		}
	}
}
