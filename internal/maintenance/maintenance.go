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

// channelTables maps a channel to its (sales, returns) table names and
// the column prefixes used to locate key columns.
var channelTables = map[string][2]string{
	"store":   {"store_sales", "store_returns"},
	"catalog": {"catalog_sales", "catalog_returns"},
	"web":     {"web_sales", "web_returns"},
}

// Run applies the 12 maintenance operations of one refresh set. The
// engine's cached auxiliary structures for modified tables are
// invalidated (their rebuild on next use is the benchmark's "maintain
// auxiliary data structures" cost, §5.2).
func Run(eng *exec.Engine, rs *RefreshSet) (Stats, error) {
	var stats Stats
	db := eng.DB()
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
		n, err := applyDimUpdates(db, rs, schema.HistoryKeeping)
		stats.DimRevisions += n
		return n, err
	}); err != nil {
		return stats, err
	}
	if err := timed("update_nonhistory_dims", func() (int, error) {
		n, err := applyDimUpdates(db, rs, schema.NonHistory)
		stats.DimInPlace += n
		return n, err
	}); err != nil {
		return stats, err
	}
	for _, tab := range []string{"store", "call_center", "web_site", "web_page", "item",
		"customer", "customer_address", "warehouse", "promotion", "catalog_page"} {
		eng.InvalidateIndexes(tab)
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
			n, err := insertSales(db, ch, rs)
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
			n, err := insertReturns(db, ch, rs)
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

	for _, names := range channelTables {
		eng.InvalidateIndexes(names[0])
		eng.InvalidateIndexes(names[1])
	}
	eng.InvalidateIndexes("inventory")
	return stats, nil
}

// bkIndex builds business key -> row id for a dimension. For history
// keeping dimensions only the current revision (rec_end_date IS NULL)
// is indexed — "the row containing NULL ... is the most current" (§4.2).
func bkIndex(t *storage.Table) map[string]int {
	def := t.Def
	bkCol := def.ColumnIndex(def.BusinessKey)
	endCol := -1
	if def.SCD == schema.HistoryKeeping {
		for i, c := range def.Columns {
			if strings.HasSuffix(c.Name, "rec_end_date") {
				endCol = i
			}
		}
	}
	ix := make(map[string]int, t.NumRows())
	for r := 0; r < t.NumRows(); r++ {
		if endCol >= 0 && !t.Get(r, endCol).IsNull() {
			continue
		}
		ix[t.Get(r, bkCol).S] = r
	}
	return ix
}

// applyDimUpdates applies the refresh set's dimension changes for one
// SCD class.
func applyDimUpdates(db *storage.DB, rs *RefreshSet, class schema.SCDClass) (int, error) {
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
		ix := bkIndex(t)
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
				if err := insertRevision(t, row, u, rs.UpdateDateSK); err != nil {
					return n, err
				}
			}
			n++
		}
	}
	return n, nil
}

// insertRevision implements Figure 9 for one entity.
func insertRevision(t *storage.Table, row int, u DimUpdate, updateDateSK int64) error {
	def := t.Def
	var startCol, endCol, skCol int
	skCol = def.ColumnIndex(def.PrimaryKey[0])
	for i, c := range def.Columns {
		if strings.HasSuffix(c.Name, "rec_start_date") {
			startCol = i
		}
		if strings.HasSuffix(c.Name, "rec_end_date") {
			endCol = i
		}
	}
	updateDay := storage.DaysFromSK(updateDateSK)
	// Close the current revision.
	t.SetValue(row, endCol, storage.DateV(updateDay))
	// New revision: copy, apply changes, fresh surrogate key, open range.
	newRow := t.Row(row)
	for col, val := range u.Set {
		ci := def.ColumnIndex(col)
		if ci < 0 {
			return fmt.Errorf("%s: no column %q", def.Name, col)
		}
		newRow[ci] = val
	}
	maxSK := int64(0)
	vals, nulls := t.ScanInt64(skCol)
	for i, v := range vals {
		if !storage.IsNull(nulls, i) && v > maxSK {
			maxSK = v
		}
	}
	newRow[skCol] = storage.Int(maxSK + 1)
	newRow[startCol] = storage.DateV(updateDay)
	newRow[endCol] = storage.Null
	t.Append(newRow)
	return nil
}

// deleteChannel implements the clustered delete: all sales rows sold in
// the range, and all returns whose return date falls in the range.
func deleteChannel(db *storage.DB, channel string, rs *RefreshSet) (int, error) {
	rng, ok := rs.DeleteRange[channel]
	if !ok {
		return 0, nil
	}
	names := channelTables[channel]
	total := 0
	for i, table := range names {
		t := db.Table(table)
		dateCol := 0 // both facts carry their date key in column 0
		_ = i
		var victims []int
		vals, nulls := t.ScanInt64(dateCol)
		for r, v := range vals {
			if !storage.IsNull(nulls, r) && v >= rng[0] && v <= rng[1] {
				victims = append(victims, r)
			}
		}
		total += t.Delete(victims)
	}
	return total, nil
}

// insertSales implements Figure 10 for one channel's staged sales.
func insertSales(db *storage.DB, channel string, rs *RefreshSet) (int, error) {
	staged := rs.Sales[channel]
	if len(staged) == 0 {
		return 0, nil
	}
	t := db.Table(channelTables[channel][0])
	itemIx := bkIndex(db.Table("item"))
	custIx := bkIndex(db.Table("customer"))
	itemSKs, _ := db.Table("item").ScanInt64(0)
	custSKs, _ := db.Table("customer").ScanInt64(0)
	n := 0
	for _, s := range staged {
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
		row, err := buildFactRow(t.Def, channel, s, itemSKs[itRow], custSKs[cuRow])
		if err != nil {
			return n, err
		}
		t.Append(row)
		n++
	}
	return n, nil
}

// buildFactRow assembles a full fact row from a staged sale. Derived
// monetary columns keep the generator's consistency rules; optional
// foreign keys not present in the staging data stay NULL.
func buildFactRow(def *schema.Table, channel string, s StagedSale, itemSK, custSK int64) ([]storage.Value, error) {
	row := make([]storage.Value, len(def.Columns))
	set := func(col string, v storage.Value) error {
		ci := def.ColumnIndex(col)
		if ci < 0 {
			return fmt.Errorf("fact %s: no column %s", def.Name, col)
		}
		row[ci] = v
		return nil
	}
	var p string
	switch channel {
	case "store":
		p = "ss"
	case "catalog":
		p = "cs"
	default:
		p = "ws"
	}
	q := float64(s.Quantity)
	ext := s.SalesPrice * q
	extWholesale := s.Wholesale * q
	cols := map[string]storage.Value{
		p + "_sold_date_sk":       storage.Int(s.SoldDateSK),
		p + "_sold_time_sk":       storage.Int(s.SoldTimeSK),
		p + "_item_sk":            storage.Int(itemSK),
		p + "_quantity":           storage.Int(s.Quantity),
		p + "_wholesale_cost":     storage.Float(s.Wholesale),
		p + "_list_price":         storage.Float(s.SalesPrice * 1.2),
		p + "_sales_price":        storage.Float(s.SalesPrice),
		p + "_ext_sales_price":    storage.Float(ext),
		p + "_ext_wholesale_cost": storage.Float(extWholesale),
		p + "_ext_list_price":     storage.Float(ext * 1.2),
		p + "_net_paid":           storage.Float(ext),
		p + "_net_profit":         storage.Float(ext - extWholesale),
	}
	switch channel {
	case "store":
		cols["ss_customer_sk"] = storage.Int(custSK)
		cols["ss_ticket_number"] = storage.Int(s.Order)
	case "catalog":
		cols["cs_bill_customer_sk"] = storage.Int(custSK)
		cols["cs_order_number"] = storage.Int(s.Order)
	default:
		cols["ws_bill_customer_sk"] = storage.Int(custSK)
		cols["ws_order_number"] = storage.Int(s.Order)
	}
	for col, v := range cols {
		if err := set(col, v); err != nil {
			return nil, err
		}
	}
	return row, nil
}

// insertReturns loads staged returns, resolving items like Figure 10.
func insertReturns(db *storage.DB, channel string, rs *RefreshSet) (int, error) {
	staged := rs.Returns[channel]
	if len(staged) == 0 {
		return 0, nil
	}
	t := db.Table(channelTables[channel][1])
	def := t.Def
	itemIx := bkIndex(db.Table("item"))
	itemSKs, _ := db.Table("item").ScanInt64(0)
	var p string
	var orderCol string
	switch channel {
	case "store":
		p, orderCol = "sr", "sr_ticket_number"
	case "catalog":
		p, orderCol = "cr", "cr_order_number"
	default:
		p, orderCol = "wr", "wr_order_number"
	}
	n := 0
	for _, r := range staged {
		itRow, ok := itemIx[r.ItemID]
		if !ok {
			return n, fmt.Errorf("%s returns insert: unknown item %q", channel, r.ItemID)
		}
		row := make([]storage.Value, len(def.Columns))
		set := func(col string, v storage.Value) {
			if ci := def.ColumnIndex(col); ci >= 0 {
				row[ci] = v
			}
		}
		set(p+"_returned_date_sk", storage.Int(r.ReturnedDateSK))
		set(p+"_item_sk", storage.Int(itemSKs[itRow]))
		set(orderCol, storage.Int(r.Order))
		set(p+"_return_quantity", storage.Int(r.Quantity))
		amtCol := p + "_return_amt"
		if channel == "catalog" {
			amtCol = "cr_return_amount"
		}
		set(amtCol, storage.Float(r.Amount))
		t.Append(row)
		n++
	}
	return n, nil
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
	vals, nulls := inv.ScanInt64(0)
	var victims []int
	type key struct{ date, item, wh int64 }
	var fresh []key
	for r, v := range vals {
		if !storage.IsNull(nulls, r) && v >= rng[0] && v <= rng[1] {
			victims = append(victims, r)
			fresh = append(fresh, key{
				date: v,
				item: inv.Get(r, 1).AsInt(),
				wh:   inv.Get(r, 2).AsInt(),
			})
		}
	}
	removed := inv.Delete(victims)
	for i, k := range fresh {
		qty := (k.item*31+k.wh*7+int64(i))%1000 + 1
		inv.Append([]storage.Value{
			storage.Int(k.date), storage.Int(k.item), storage.Int(k.wh), storage.Int(qty),
		})
	}
	return removed + len(fresh), nil
}
