package maintenance

import (
	"fmt"
	"sort"

	"tpcds/internal/rng"
	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

// GenerateRefresh synthesizes the staged input of maintenance run n
// against the current database state — the benchmark's stand-in for the
// extraction step (§4.2: "the data extraction step ... is assumed and
// represented in the benchmark in the form of generated flat files").
// The same (seed, n) always yields the same refresh set for a given
// database state.
func GenerateRefresh(db *storage.DB, seed uint64, n int) (*RefreshSet, error) {
	s := rng.NewStream(rng.ColumnSeed(seed, "refresh", fmt.Sprintf("set-%d", n)))
	rs := &RefreshSet{
		Sales:       map[string][]StagedSale{},
		Returns:     map[string][]StagedReturn{},
		DeleteRange: map[string][2]int64{},
	}

	// The update date stamps new SCD revisions: one day past the sales
	// window per refresh run.
	base := storage.DaysFromYMD(2003, 1, 1)
	rs.UpdateDateSK = storage.DateSK(base + int64(n))

	// Clustered delete ranges: a random two-week window per channel
	// inside the sales history (§4.2: "according to a randomly picked
	// date range, fact table data are deleted and substituted with
	// similar data during the insert phase").
	for _, channel := range []string{"store", "catalog", "web"} {
		start := storage.DaysFromYMD(1998, 1, 1) + s.Int63n(365*5-14)
		rs.DeleteRange[channel] = [2]int64{storage.DateSK(start), storage.DateSK(start + 13)}
	}

	items, err := businessKeys(db, "item")
	if err != nil {
		return nil, err
	}
	customers, err := businessKeys(db, "customer")
	if err != nil {
		return nil, err
	}
	if len(items) == 0 || len(customers) == 0 {
		return nil, fmt.Errorf("maintenance: empty item or customer dimension")
	}

	// Staged inserts: roughly 1% of each fact, dated inside the deleted
	// window (similar data replaces the deleted data).
	for _, channel := range []string{"store", "catalog", "web"} {
		fact := db.Table(channelTables[channel][0])
		count := fact.NumRows() / 100
		if count < 10 {
			count = 10
		}
		maxOrder := maxInt64Col(fact, fact.Def.ColumnIndex(fact.Def.PrimaryKey[1]))
		rng := rs.DeleteRange[channel]
		var sales []StagedSale
		order := maxOrder
		for i := 0; i < count; i++ {
			if i%7 == 0 {
				order++ // several line items share an order
			}
			sales = append(sales, StagedSale{
				SoldDateSK: rng[0] + s.Int63n(rng[1]-rng[0]+1),
				SoldTimeSK: 1 + s.Int63n(86400),
				ItemID:     items[s.Intn(len(items))],
				CustomerID: customers[s.Intn(len(customers))],
				Order:      order,
				Quantity:   1 + s.Int63n(100),
				SalesPrice: float64(1+s.Intn(9999)) / 100,
				Wholesale:  float64(1+s.Intn(5000)) / 100,
			})
		}
		rs.Sales[channel] = sales
		// ~10% of the staged sales are returned shortly after.
		var rets []StagedReturn
		for i := 0; i < len(sales); i += 10 {
			sale := sales[i]
			rets = append(rets, StagedReturn{
				ReturnedDateSK: sale.SoldDateSK + 1 + s.Int63n(30),
				ItemID:         sale.ItemID,
				Order:          sale.Order,
				Quantity:       1 + s.Int63n(sale.Quantity),
				Amount:         sale.SalesPrice * float64(sale.Quantity) * 0.9,
			})
		}
		rs.Returns[channel] = rets
	}

	// Dimension updates: a handful of entities per maintainable
	// dimension, with realistic changed attributes.
	updatable := map[string][]string{
		"item":             {"i_current_price"},
		"store":            {"s_manager", "s_number_employees"},
		"call_center":      {"cc_manager", "cc_employees"},
		"web_site":         {"web_manager"},
		"web_page":         {"wp_link_count"},
		"customer":         {"c_email_address", "c_preferred_cust_flag"},
		"customer_address": {"ca_street_number"},
		"warehouse":        {"w_warehouse_sq_ft"},
		"promotion":        {"p_cost"},
		"catalog_page":     {"cp_description"},
	}
	// Iterate in a fixed order: the RNG stream is sequential, so the
	// table processed first determines every later table's draws — map
	// iteration order here made the whole refresh set (and with it the
	// post-maintenance database and every run-2 result) differ from
	// process to process.
	tables := make([]string, 0, len(updatable))
	for table := range updatable {
		tables = append(tables, table)
	}
	sort.Strings(tables)
	listed := map[string][]string{"item": items, "customer": customers} // each dimension's keys are listed once
	for _, table := range tables {
		cols := updatable[table]
		t := db.Table(table)
		if t == nil || t.Def.BusinessKey == "" {
			continue
		}
		keys, ok := listed[table]
		if !ok {
			if keys, err = businessKeys(db, table); err != nil {
				return nil, err
			}
		}
		count := len(keys) / 20
		if count < 2 {
			count = 2
		}
		if count > 25 {
			count = 25
		}
		if count > len(keys) {
			count = len(keys)
		}
		perm := make([]int, len(keys))
		s.Perm(perm)
		for i := 0; i < count; i++ {
			u := DimUpdate{Table: table, BusinessKey: keys[perm[i]], Set: map[string]storage.Value{}}
			for _, col := range cols {
				c, ok := t.Def.Column(col)
				if !ok {
					return nil, fmt.Errorf("maintenance: %s has no column %s", table, col)
				}
				switch c.Type {
				case schema.Decimal:
					u.Set[col] = storage.Float(float64(1+s.Intn(9999)) / 100)
				case schema.Integer:
					u.Set[col] = storage.Int(1 + s.Int63n(1000))
				default:
					u.Set[col] = storage.Str(fmt.Sprintf("updated-%d-%d", n, s.Intn(1000)))
				}
			}
			rs.DimUpdates = append(rs.DimUpdates, u)
		}
	}
	return rs, nil
}

// businessKeys returns the distinct business keys of a dimension in
// first-seen row order (one entry per entity — revisions of
// history-keeping dimensions share the key), read from the key
// column's vectors.
func businessKeys(db *storage.DB, table string) ([]string, error) {
	t := db.Table(table)
	if t == nil {
		return nil, fmt.Errorf("maintenance: unknown table %q", table)
	}
	if t.Def.BusinessKey == "" {
		return nil, fmt.Errorf("maintenance: %s has no business key", table)
	}
	keys := businessKeyColumn(t)
	seen := make(map[string]struct{}, t.NumRows())
	var out []string
	for r := 0; r < t.NumRows(); r++ {
		k := keys.at(r)
		if _, ok := seen[k]; !ok {
			seen[k] = struct{}{}
			out = append(out, k)
		}
	}
	return out, nil
}

func maxInt64Col(t *storage.Table, col int) int64 {
	vals, nulls := t.ScanInt64(col)
	var max int64
	for i, v := range vals {
		if !storage.IsNull(nulls, i) && v > max {
			max = v
		}
	}
	return max
}
