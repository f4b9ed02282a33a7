// Package maintenance implements the TPC-DS data maintenance workload
// (§4.2): the periodic ETL refresh of the warehouse. The data
// extraction step ("E") is represented as generated staged data —
// business-keyed rows as they would arrive from an operational system —
// and the package implements the transformations and loads:
//
//   - Figure 8: in-place updates of non-history keeping dimensions;
//   - Figure 9: versioned updates of history keeping dimensions (close
//     the current revision, insert a new open revision);
//   - Figure 10: fact inserts that translate business keys to surrogate
//     keys by joining staged rows against the dimensions (picking the
//     revision with rec_end_date IS NULL for history-keeping ones);
//   - logically clustered fact deletes over a date range (the shape
//     that rewards partition-drop implementations).
//
// The 12 data maintenance operations of the benchmark are the three
// per-channel sales inserts, three returns inserts, three per-channel
// clustered deletes, the inventory refresh, and the two dimension
// update passes (history and non-history). Run applies them in order
// and reports per-operation timings for the driver.
package maintenance

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"tpcds/internal/exec"
	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

// StagedSale is one extracted sales row: dimension references arrive as
// business keys (the OLTP system's identifiers), not surrogate keys.
type StagedSale struct {
	SoldDateSK int64 // calendar keys are stable and arrive as-is
	SoldTimeSK int64
	ItemID     string // item business key (i_item_id)
	CustomerID string // customer business key (c_customer_id)
	Order      int64
	Quantity   int64
	SalesPrice float64
	Wholesale  float64
}

// StagedReturn is one extracted return row, referencing a sale by
// (item business key, order number).
type StagedReturn struct {
	ReturnedDateSK int64
	ItemID         string
	Order          int64
	Quantity       int64
	Amount         float64
}

// DimUpdate is one extracted dimension change: the business key
// identifies the entity; Set holds the changed attributes.
type DimUpdate struct {
	Table       string
	BusinessKey string
	Set         map[string]storage.Value
}

// RefreshSet is the staged input of one data maintenance run.
type RefreshSet struct {
	// Sales and Returns are keyed by channel: "store", "catalog", "web".
	Sales   map[string][]StagedSale
	Returns map[string][]StagedReturn
	// DeleteRange is the [lo, hi] sold-date surrogate key range whose
	// fact rows are deleted, per channel (logically clustered, §4.2).
	DeleteRange map[string][2]int64
	// DimUpdates holds both history and non-history dimension changes.
	DimUpdates []DimUpdate
	// UpdateDateSK stamps new SCD revisions (rec date handling).
	UpdateDateSK int64
}

// OpResult is the timing record of one maintenance operation.
type OpResult struct {
	Name     string
	Rows     int
	Duration time.Duration
}

// Stats aggregates a full maintenance run.
type Stats struct {
	Ops          []OpResult
	FactInserts  int
	FactDeletes  int
	DimInPlace   int
	DimRevisions int
}

// Total returns the summed duration of all operations.
func (s Stats) Total() time.Duration {
	var d time.Duration
	for _, op := range s.Ops {
		d += op.Duration
	}
	return d
}

// channelTables maps a channel to its (sales, returns) table names;
// channelPrefix gives their column prefixes.
var channelTables = map[string][2]string{
	"store":   {"store_sales", "store_returns"},
	"catalog": {"catalog_sales", "catalog_returns"},
	"web":     {"web_sales", "web_returns"},
}

// Run applies the 12 maintenance operations of one refresh set to the
// engine's database. Every table an operation changes moves to a new
// epoch, and the engine rebuilds a structure derived from it (index,
// postings, statistics, plan) on its next use — the benchmark's
// "maintain auxiliary data structures" cost (§5.2); Run names no table
// to the engine. Each dimension's business key index is built once, by
// the first operation that needs it, and kept current by the run's own
// revisions.
func Run(eng *exec.Engine, rs *RefreshSet) (Stats, error) {
	var stats Stats
	db := eng.DB()
	keys := dimKeys{}
	timed := func(name string, fn func() (int, error)) error {
		start := time.Now()
		n, err := fn()
		if err != nil {
			return fmt.Errorf("maintenance %s: %w", name, err)
		}
		stats.Ops = append(stats.Ops, OpResult{Name: name, Rows: n, Duration: time.Since(start)})
		return nil
	}

	// Operations 1-2: dimension updates (Figures 8 and 9).
	if err := timed("update_history_dims", func() (int, error) {
		n, err := applyDimUpdates(db, rs, schema.HistoryKeeping, keys)
		stats.DimRevisions += n
		return n, err
	}); err != nil {
		return stats, err
	}
	if err := timed("update_nonhistory_dims", func() (int, error) {
		n, err := applyDimUpdates(db, rs, schema.NonHistory, keys)
		stats.DimInPlace += n
		return n, err
	}); err != nil {
		return stats, err
	}

	// Operations 3-8: per-channel clustered deletes (sales + returns
	// together form one delete operation per channel), then inserts.
	for _, channel := range []string{"store", "catalog", "web"} {
		ch := channel
		if err := timed("delete_"+ch, func() (int, error) {
			n, err := deleteChannel(db, ch, rs)
			stats.FactDeletes += n
			return n, err
		}); err != nil {
			return stats, err
		}
	}
	for _, channel := range []string{"store", "catalog", "web"} {
		ch := channel
		if err := timed("insert_"+ch+"_sales", func() (int, error) {
			n, err := insertSales(db, ch, rs, keys)
			stats.FactInserts += n
			return n, err
		}); err != nil {
			return stats, err
		}
	}

	// Operations 9-11: returns inserts per channel.
	for _, channel := range []string{"store", "catalog", "web"} {
		ch := channel
		if err := timed("insert_"+ch+"_returns", func() (int, error) {
			n, err := insertReturns(db, ch, rs, keys)
			stats.FactInserts += n
			return n, err
		}); err != nil {
			return stats, err
		}
	}

	// Operation 12: inventory refresh — replace the snapshots falling in
	// the deleted date range with fresh rows for the same weeks.
	if err := timed("refresh_inventory", func() (int, error) {
		return refreshInventory(db, rs)
	}); err != nil {
		return stats, err
	}
	return stats, nil
}

// keyColumn reads a dimension's business key column from its typed
// vectors: row r's key is its string, "" for a NULL (as Value.S reads).
type keyColumn struct {
	strs  []string
	codes []uint16
	dict  []string
	nulls []bool
}

// businessKeyColumn returns t's business key column.
func businessKeyColumn(t *storage.Table) keyColumn {
	_, _, _, strs, codes, dict, nulls := t.Col(t.Def.ColumnIndex(t.Def.BusinessKey)).Raw()
	return keyColumn{strs, codes, dict, nulls}
}

// at returns row r's key.
func (k keyColumn) at(r int) string {
	switch {
	case storage.IsNull(k.nulls, r):
		return ""
	case k.dict != nil:
		return k.dict[k.codes[r]]
	default:
		return k.strs[r]
	}
}

// recDateCols returns the positions of a history-keeping dimension's
// rec_start_date and rec_end_date columns (-1 where there is none).
func recDateCols(def *schema.Table) (start, end int) {
	start, end = -1, -1
	for i, c := range def.Columns {
		if strings.HasSuffix(c.Name, "rec_start_date") {
			start = i
		}
		if strings.HasSuffix(c.Name, "rec_end_date") {
			end = i
		}
	}
	return start, end
}

// dimKeys holds one run's business key indexes, by dimension name. An
// index is built on first use and kept current by the run itself: a
// revision moves its key to the new row.
type dimKeys map[string]map[string]int

// index returns t's business key -> row index, building it on first
// use.
func (k dimKeys) index(t *storage.Table) map[string]int {
	ix, ok := k[t.Def.Name]
	if !ok {
		ix = bkIndex(t)
		k[t.Def.Name] = ix
	}
	return ix
}

// bkIndex builds business key -> row id for a dimension from its key
// column's vectors. For history keeping dimensions only the current
// revision (rec_end_date IS NULL) is indexed — "the row containing
// NULL ... is the most current" (§4.2). A key on several indexed rows
// maps to the last.
func bkIndex(t *storage.Table) map[string]int {
	keys := businessKeyColumn(t)
	end := -1
	if t.Def.SCD == schema.HistoryKeeping {
		_, end = recDateCols(t.Def)
	}
	var open []bool // rec_end_date's null vector: true on an open revision
	if end >= 0 {
		_, open = t.ScanInt64(end)
	}
	ix := make(map[string]int, t.NumRows())
	for r := 0; r < t.NumRows(); r++ {
		if end >= 0 && !storage.IsNull(open, r) {
			continue
		}
		ix[keys.at(r)] = r
	}
	return ix
}

// applyDimUpdates applies the refresh set's dimension changes for one
// SCD class.
func applyDimUpdates(db *storage.DB, rs *RefreshSet, class schema.SCDClass, keys dimKeys) (int, error) {
	byTable := map[string][]DimUpdate{}
	var tables []string
	for _, u := range rs.DimUpdates {
		if _, ok := byTable[u.Table]; !ok {
			tables = append(tables, u.Table)
		}
		byTable[u.Table] = append(byTable[u.Table], u)
	}
	sort.Strings(tables)
	n := 0
	for _, table := range tables {
		updates := byTable[table]
		t := db.Table(table)
		if t == nil {
			return n, fmt.Errorf("unknown dimension %q", table)
		}
		if t.Def.SCD != class {
			continue
		}
		if t.Def.BusinessKey == "" {
			return n, fmt.Errorf("dimension %q has no business key", table)
		}
		ix := keys.index(t)
		var maxSK int64 // the largest surrogate key, for Figure 9's new revisions
		if class == schema.HistoryKeeping {
			maxSK = maxInt64Col(t, t.Def.ColumnIndex(t.Def.PrimaryKey[0]))
		}
		for _, u := range updates {
			row, ok := ix[u.BusinessKey]
			if !ok {
				return n, fmt.Errorf("%s: business key %q not found", table, u.BusinessKey)
			}
			switch class {
			case schema.NonHistory:
				// Figure 8: update all changed fields in place.
				for col, val := range u.Set {
					ci := t.Def.ColumnIndex(col)
					if ci < 0 {
						return n, fmt.Errorf("%s: no column %q", table, col)
					}
					t.SetValue(row, ci, val)
				}
			case schema.HistoryKeeping:
				// Figure 9: close the current revision, insert a new one.
				maxSK++
				revision, err := insertRevision(t, row, u, rs.UpdateDateSK, maxSK)
				if err != nil {
					return n, err
				}
				ix[u.BusinessKey] = revision // the key moves to the new revision
			}
			n++
		}
	}
	return n, nil
}

// insertRevision implements Figure 9 for one entity: it closes the
// revision at row and appends an open one with surrogate key sk, and
// returns the new row.
func insertRevision(t *storage.Table, row int, u DimUpdate, updateDateSK, sk int64) (int, error) {
	def := t.Def
	skCol := def.ColumnIndex(def.PrimaryKey[0])
	startCol, endCol := recDateCols(def)
	updateDay := storage.DaysFromSK(updateDateSK)
	// Close the current revision.
	t.SetValue(row, endCol, storage.DateV(updateDay))
	// New revision: copy, apply changes, fresh surrogate key, open range.
	newRow := t.Row(row)
	for col, val := range u.Set {
		ci := def.ColumnIndex(col)
		if ci < 0 {
			return 0, fmt.Errorf("%s: no column %q", def.Name, col)
		}
		newRow[ci] = val
	}
	newRow[skCol] = storage.Int(sk)
	newRow[startCol] = storage.DateV(updateDay)
	newRow[endCol] = storage.Null
	t.Append(newRow)
	return t.NumRows() - 1, nil
}

// deleteChannel implements the clustered delete: all sales rows sold in
// the range, and all returns whose return date falls in the range.
func deleteChannel(db *storage.DB, channel string, rs *RefreshSet) (int, error) {
	rng, ok := rs.DeleteRange[channel]
	if !ok {
		return 0, nil
	}
	total := 0
	for _, table := range channelTables[channel] {
		t := db.Table(table)
		var victims []int
		vals, nulls := t.ScanInt64(0) // both facts carry their date key in column 0
		for r, v := range vals {
			if !storage.IsNull(nulls, r) && v >= rng[0] && v <= rng[1] {
				victims = append(victims, r)
			}
		}
		total += t.Delete(victims)
	}
	return total, nil
}

// factCells maps a fact table's columns, in order, to the cells one
// insert operation writes: column c takes ints[slot[c]] or, where
// float[c], flts[slot[c]]; a column with slot -1 — an optional foreign
// key or measure the staged data lacks — stays NULL.
type factCells struct {
	slot  []int
	float []bool
}

// resolveFactCells finds the named int and float columns of def once
// per operation; ints[i] and flts[i] name the columns of the row
// arrays' entry i.
func resolveFactCells(def *schema.Table, ints, flts []string) (factCells, error) {
	fc := factCells{slot: make([]int, len(def.Columns)), float: make([]bool, len(def.Columns))}
	for c := range fc.slot {
		fc.slot[c] = -1
	}
	for float, names := range [2][]string{ints, flts} {
		for i, name := range names {
			c := def.ColumnIndex(name)
			if c < 0 {
				return fc, fmt.Errorf("fact %s: no column %s", def.Name, name)
			}
			fc.slot[c], fc.float[c] = i, float == 1
		}
	}
	return fc, nil
}

// write appends one row through w.
func (fc factCells) write(w *storage.Writer, ints []int64, flts []float64) {
	for c, s := range fc.slot {
		switch {
		case s < 0:
			w.Null()
		case fc.float[c]:
			w.Float(flts[s])
		default:
			w.Int(ints[s])
		}
	}
	w.EndRow()
}

// channelPrefix returns the column prefixes of a channel's sales and
// returns tables and the name of their order number columns.
func channelPrefix(channel string) (sales, returns, order string) {
	switch channel {
	case "store":
		return "ss", "sr", "ticket_number"
	case "catalog":
		return "cs", "cr", "order_number"
	default:
		return "ws", "wr", "order_number"
	}
}

// insertSales implements Figure 10 for one channel's staged sales.
// Derived monetary columns keep the generator's consistency rules;
// optional foreign keys not present in the staging data stay NULL.
func insertSales(db *storage.DB, channel string, rs *RefreshSet, keys dimKeys) (int, error) {
	staged := rs.Sales[channel]
	if len(staged) == 0 {
		return 0, nil
	}
	t := db.Table(channelTables[channel][0])
	p, _, order := channelPrefix(channel)
	cust := p + "_bill_customer_sk"
	if channel == "store" {
		cust = "ss_customer_sk"
	}
	cells, err := resolveFactCells(t.Def,
		[]string{p + "_sold_date_sk", p + "_sold_time_sk", p + "_item_sk", p + "_quantity", cust, p + "_" + order},
		[]string{p + "_wholesale_cost", p + "_list_price", p + "_sales_price", p + "_ext_sales_price",
			p + "_ext_wholesale_cost", p + "_ext_list_price", p + "_net_paid", p + "_net_profit"})
	if err != nil {
		return 0, err
	}
	item, customer := db.Table("item"), db.Table("customer")
	itemIx, custIx := keys.index(item), keys.index(customer)
	itemSKs, _ := item.ScanInt64(0)
	custSKs, _ := customer.ScanInt64(0)
	w := t.Writer()
	defer w.Close()
	for n, s := range staged {
		// Figure 10: exchange business keys with surrogate keys; history
		// keeping dimensions resolve to the open revision.
		itRow, ok := itemIx[s.ItemID]
		if !ok {
			return n, fmt.Errorf("%s insert: unknown item %q", channel, s.ItemID)
		}
		cuRow, ok := custIx[s.CustomerID]
		if !ok {
			return n, fmt.Errorf("%s insert: unknown customer %q", channel, s.CustomerID)
		}
		q := float64(s.Quantity)
		ext := s.SalesPrice * q
		extWholesale := s.Wholesale * q
		cells.write(w,
			[]int64{s.SoldDateSK, s.SoldTimeSK, itemSKs[itRow], s.Quantity, custSKs[cuRow], s.Order},
			[]float64{s.Wholesale, s.SalesPrice * 1.2, s.SalesPrice, ext, extWholesale, ext * 1.2, ext, ext - extWholesale})
	}
	return len(staged), nil
}

// insertReturns loads staged returns, resolving items like Figure 10.
func insertReturns(db *storage.DB, channel string, rs *RefreshSet, keys dimKeys) (int, error) {
	staged := rs.Returns[channel]
	if len(staged) == 0 {
		return 0, nil
	}
	t := db.Table(channelTables[channel][1])
	_, p, order := channelPrefix(channel)
	amt := p + "_return_amt"
	if channel == "catalog" {
		amt = "cr_return_amount"
	}
	cells, err := resolveFactCells(t.Def,
		[]string{p + "_returned_date_sk", p + "_item_sk", p + "_" + order, p + "_return_quantity"},
		[]string{amt})
	if err != nil {
		return 0, err
	}
	item := db.Table("item")
	itemIx := keys.index(item)
	itemSKs, _ := item.ScanInt64(0)
	w := t.Writer()
	defer w.Close()
	for n, r := range staged {
		itRow, ok := itemIx[r.ItemID]
		if !ok {
			return n, fmt.Errorf("%s returns insert: unknown item %q", channel, r.ItemID)
		}
		cells.write(w, []int64{r.ReturnedDateSK, itemSKs[itRow], r.Order, r.Quantity}, []float64{r.Amount})
	}
	return len(staged), nil
}

// refreshInventory replaces the weekly snapshots falling inside the
// store channel's deleted date range with fresh rows (same weeks, new
// quantities derived from the update date).
func refreshInventory(db *storage.DB, rs *RefreshSet) (int, error) {
	rng, ok := rs.DeleteRange["store"]
	if !ok {
		return 0, nil
	}
	inv := db.Table("inventory")
	dates, nulls := inv.ScanInt64(0)
	items, _ := inv.ScanInt64(1)
	whs, _ := inv.ScanInt64(2)
	var victims []int
	type key struct{ date, item, wh int64 }
	var fresh []key
	for r, v := range dates {
		if !storage.IsNull(nulls, r) && v >= rng[0] && v <= rng[1] {
			victims = append(victims, r)
			fresh = append(fresh, key{date: v, item: items[r], wh: whs[r]})
		}
	}
	removed := inv.Delete(victims)
	w := inv.Writer()
	for i, k := range fresh {
		w.Int(k.date)
		w.Int(k.item)
		w.Int(k.wh)
		w.Int((k.item*31+k.wh*7+int64(i))%1000 + 1)
		w.EndRow()
	}
	w.Close()
	return removed + len(fresh), nil
}
