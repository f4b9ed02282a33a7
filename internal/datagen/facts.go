package datagen

import (
	"fmt"

	"tpcds/internal/dist"
	"tpcds/internal/rng"
	"tpcds/internal/storage"
)

// lineItem carries the per-line monetary columns shared by all three
// sales channels. Amounts are mutually consistent (ext_* = unit * qty,
// net_paid = ext_sales_price - coupon, profit = net_paid -
// ext_wholesale_cost) so queries aggregating different measures agree.
type lineItem struct {
	quantity                             int64
	wholesale, list, sales               float64
	extDiscount, extSales, extWholesale  float64
	extList, extTax, coupon              float64
	netPaid, netPaidIncTax, netProfit    float64
	extShipCost, netPaidIncShip, netPIST float64
}

func genLineItem(s *rng.Stream) lineItem {
	var li lineItem
	li.quantity = s.Range(1, 100)
	li.wholesale = money(1 + s.Float64()*99)
	li.list = money(li.wholesale * (1 + s.Float64()))
	li.sales = money(li.list * (0.1 + 0.9*s.Float64()))
	q := float64(li.quantity)
	li.extDiscount = money((li.list - li.sales) * q)
	li.extSales = money(li.sales * q)
	li.extWholesale = money(li.wholesale * q)
	li.extList = money(li.list * q)
	li.extTax = money(li.extSales * 0.09 * s.Float64())
	if s.Intn(5) == 0 {
		li.coupon = money(li.extSales * 0.3 * s.Float64())
	}
	li.netPaid = money(li.extSales - li.coupon)
	li.netPaidIncTax = money(li.netPaid + li.extTax)
	li.netProfit = money(li.netPaid - li.extWholesale)
	li.extShipCost = money(q * s.Float64() * 5)
	li.netPaidIncShip = money(li.netPaid + li.extShipCost)
	li.netPIST = money(li.netPaidIncTax + li.extShipCost)
	return li
}

// pickSalesDate draws a day with the Figure 2 zoned seasonality: a
// uniform year in the sales window, a zoned month, and a uniform day of
// that month (uniform within a zone — the comparability guarantee).
func pickSalesDate(s *rng.Stream) int64 {
	year := FirstSalesYear + s.Intn(SalesYears)
	month := dist.PickSalesMonth(s)
	day := 1 + s.Intn(dist.DaysInMonth(month))
	return storage.DaysFromYMD(year, month, day)
}

// dimSizes snapshots the dimension cardinalities a fact generator needs.
type dimSizes struct {
	item, customer, cdemo, hdemo, addr    int64
	store, promo, timeRows, reason        int64
	callCenter, catalogPage, shipMode, wh int64
	webPage, webSite                      int64
}

func (g *Generator) sizes(db *storage.DB) dimSizes {
	rows := func(name string) int64 { return int64(db.Table(name).NumRows()) }
	return dimSizes{
		item: rows("item"), customer: rows("customer"),
		cdemo: rows("customer_demographics"), hdemo: rows("household_demographics"),
		addr: rows("customer_address"), store: rows("store"),
		promo: rows("promotion"), timeRows: rows("time_dim"), reason: rows("reason"),
		callCenter: rows("call_center"), catalogPage: rows("catalog_page"),
		shipMode: rows("ship_mode"), wh: rows("warehouse"),
		webPage: rows("web_page"), webSite: rows("web_site"),
	}
}

// generateSales builds one of the three sales fact tables. Rows are
// emitted in ticket/order groups (mean basket near the paper's 10.5
// items per shopping cart) sharing a date, customer and outlet. Each
// row is written a cell at a time in column order, and a cell drawn in
// the row is drawn as it is written: the order of the draws is part of
// the data.
func (g *Generator) generateSales(db *storage.DB, name string) *storage.Table {
	def := g.defs[name]
	if def == nil {
		panic(fmt.Sprintf("datagen: unknown fact %q", name))
	}
	t := storage.NewTable(def)
	s := g.stream(name, "row")
	d := g.sizes(db)
	target := g.rows(name)
	t.Grow(int(target))
	w := t.Writer()
	var emitted, ticket int64
	for emitted < target {
		ticket++
		k := int64(1 + s.Poisson(9.5))
		if k > target-emitted {
			k = target - emitted
		}
		day := pickSalesDate(s)
		dateSK := storage.DateSK(day)
		timeSK := maybeNull(s, 2, 1+s.Int63n(d.timeRows))
		cust := maybeNull(s, 3, 1+s.Int63n(d.customer))
		cdemo := maybeNull(s, 3, 1+s.Int63n(d.cdemo))
		hdemo := maybeNull(s, 3, 1+s.Int63n(d.hdemo))
		addr := maybeNull(s, 3, 1+s.Int63n(d.addr))
		household := func() { // bill_* or ship_*: the same household
			for _, c := range [...]nullInt{cust, cdemo, hdemo, addr} {
				c.write(w)
			}
		}
		for j := int64(0); j < k; j++ {
			item := 1 + s.Int63n(d.item)
			promo := maybeNull(s, 50, 1+s.Int63n(d.promo))
			li := genLineItem(s)
			switch name {
			case "store_sales":
				w.Int(dateSK)
				timeSK.write(w)
				w.Int(item)
				household()
				maybeNull(s, 2, 1+s.Int63n(d.store)).write(w)
				promo.write(w)
				w.Int(ticket)
				w.Int(li.quantity)
				li.writeAmounts(w)
			case "catalog_sales":
				shipDate := storage.DateSK(day + 2 + s.Int63n(88))
				w.Int(dateSK)
				timeSK.write(w)
				w.Int(shipDate)
				household()
				household()
				maybeNull(s, 2, 1+s.Int63n(d.callCenter)).write(w)
				maybeNull(s, 2, 1+s.Int63n(d.catalogPage)).write(w)
				maybeNull(s, 2, 1+s.Int63n(d.shipMode)).write(w)
				maybeNull(s, 2, 1+s.Int63n(d.wh)).write(w)
				w.Int(item)
				promo.write(w)
				w.Int(ticket)
				w.Int(li.quantity)
				li.writeAmountsWithShipping(w)
			case "web_sales":
				shipDate := storage.DateSK(day + 1 + s.Int63n(60))
				w.Int(dateSK)
				timeSK.write(w)
				w.Int(shipDate)
				w.Int(item)
				household()
				household()
				maybeNull(s, 2, 1+s.Int63n(d.webPage)).write(w)
				maybeNull(s, 2, 1+s.Int63n(d.webSite)).write(w)
				maybeNull(s, 2, 1+s.Int63n(d.shipMode)).write(w)
				maybeNull(s, 2, 1+s.Int63n(d.wh)).write(w)
				promo.write(w)
				w.Int(ticket)
				w.Int(li.quantity)
				li.writeAmountsWithShipping(w)
			default:
				panic("datagen: generateSales on non-sales table " + name)
			}
			w.EndRow()
			emitted++
		}
	}
	w.Close()
	return t
}

// writeAmounts writes the monetary columns of a store sales row.
func (li *lineItem) writeAmounts(w *storage.Writer) {
	for _, f := range [...]float64{li.wholesale, li.list, li.sales, li.extDiscount,
		li.extSales, li.extWholesale, li.extList, li.extTax, li.coupon,
		li.netPaid, li.netPaidIncTax, li.netProfit} {
		w.Float(f)
	}
}

// writeAmountsWithShipping writes the monetary columns of a catalog or
// web sales row, which carry the shipping cost and its totals.
func (li *lineItem) writeAmountsWithShipping(w *storage.Writer) {
	for _, f := range [...]float64{li.wholesale, li.list, li.sales, li.extDiscount,
		li.extSales, li.extWholesale, li.extList, li.extTax, li.coupon,
		li.extShipCost, li.netPaid, li.netPaidIncTax, li.netPaidIncShip,
		li.netPIST, li.netProfit} {
		w.Float(f)
	}
}

// generateReturns builds a returns fact whose rows reference actual rows
// of the channel's sales fact, so the (item, ticket/order) fact-to-fact
// joins of §2.2 find matches. Returned dates trail the sale by 1-90
// days.
func (g *Generator) generateReturns(db *storage.DB, name string, sales *storage.Table) *storage.Table {
	def := g.defs[name]
	if def == nil {
		panic(fmt.Sprintf("datagen: unknown fact %q", name))
	}
	t := storage.NewTable(def)
	s := g.stream(name, "row")
	d := g.sizes(db)
	target := g.rows(name)
	t.Grow(int(target))
	nSales := int64(sales.NumRows())
	if nSales == 0 {
		panic("datagen: returns generated before sales")
	}
	col := func(name string) salesCol {
		v, nulls := sales.ScanInt64(sales.Def.ColumnIndex(name))
		return salesCol{v, nulls}
	}
	// Per-channel source columns in the sales fact.
	var cDate, cItem, cOrder, cCust, cCDemo, cHDemo, cAddr, cStore, cQty salesCol
	switch name {
	case "store_returns":
		cDate, cItem, cOrder = col("ss_sold_date_sk"), col("ss_item_sk"), col("ss_ticket_number")
		cCust, cCDemo, cHDemo = col("ss_customer_sk"), col("ss_cdemo_sk"), col("ss_hdemo_sk")
		cAddr, cStore, cQty = col("ss_addr_sk"), col("ss_store_sk"), col("ss_quantity")
	case "catalog_returns":
		cDate, cItem, cOrder = col("cs_sold_date_sk"), col("cs_item_sk"), col("cs_order_number")
		cCust, cCDemo, cHDemo = col("cs_bill_customer_sk"), col("cs_bill_cdemo_sk"), col("cs_bill_hdemo_sk")
		cAddr, cStore, cQty = col("cs_bill_addr_sk"), col("cs_call_center_sk"), col("cs_quantity")
	case "web_returns":
		cDate, cItem, cOrder = col("ws_sold_date_sk"), col("ws_item_sk"), col("ws_order_number")
		cCust, cCDemo, cHDemo = col("ws_bill_customer_sk"), col("ws_bill_cdemo_sk"), col("ws_bill_hdemo_sk")
		cAddr, cStore, cQty = col("ws_bill_addr_sk"), col("ws_web_page_sk"), col("ws_quantity")
	default:
		panic("datagen: generateReturns on non-returns table " + name)
	}
	w := t.Writer()
	household := func(row int) { // returning_* or refunded_*
		for _, c := range [...]salesCol{cCust, cCDemo, cHDemo, cAddr} {
			c.at(row).write(w)
		}
	}
	// Stride through the sales fact so returns cover the full history.
	stride := nSales / target
	if stride < 1 {
		stride = 1
	}
	for i := int64(0); i < target; i++ {
		saleRow := int((i * stride) % nSales)
		var returnedDay int64
		if soldDateSK := cDate.at(saleRow); soldDateSK.null {
			returnedDay = pickSalesDate(s)
		} else {
			returnedDay = storage.DaysFromSK(soldDateSK.v) + 1 + s.Int63n(90)
		}
		soldQty := int64(1)
		if q := cQty.at(saleRow); !q.null && q.v > 1 {
			soldQty = q.v
		}
		retQty := 1 + s.Int63n(soldQty)
		amt := money(float64(retQty) * (1 + s.Float64()*99))
		tax := money(amt * 0.09 * s.Float64())
		fee := money(s.Float64() * 100)
		shipCost := money(float64(retQty) * s.Float64() * 5)
		refunded := money(amt * s.Float64())
		reversed := money((amt - refunded) * s.Float64())
		credit := money(amt - refunded - reversed)
		loss := money(fee + shipCost + amt*0.1)
		timeSK := maybeNull(s, 2, 1+s.Int63n(d.timeRows))
		w.Int(storage.DateSK(returnedDay))
		timeSK.write(w)
		cItem.at(saleRow).write(w)
		household(saleRow)
		switch name {
		case "store_returns":
			cStore.at(saleRow).write(w)
			maybeNull(s, 2, 1+s.Int63n(d.reason)).write(w)
		case "catalog_returns":
			household(saleRow)
			cStore.at(saleRow).write(w) // cr_call_center_sk from cs_call_center_sk
			maybeNull(s, 2, 1+s.Int63n(d.catalogPage)).write(w)
			maybeNull(s, 2, 1+s.Int63n(d.shipMode)).write(w)
			maybeNull(s, 2, 1+s.Int63n(d.wh)).write(w)
			maybeNull(s, 2, 1+s.Int63n(d.reason)).write(w)
		case "web_returns":
			household(saleRow)
			cStore.at(saleRow).write(w) // wr_web_page_sk from ws_web_page_sk
			maybeNull(s, 2, 1+s.Int63n(d.reason)).write(w)
		}
		cOrder.at(saleRow).write(w)
		w.Int(retQty)
		for _, f := range [...]float64{amt, tax, money(amt + tax), fee, shipCost, refunded, reversed, credit, loss} {
			w.Float(f)
		}
		w.EndRow()
	}
	w.Close()
	return t
}

// salesCol is an int column of a sales fact, read as its vectors.
type salesCol struct {
	v     []int64
	nulls []bool
}

// at returns the cell at row i.
func (c salesCol) at(i int) nullInt { return nullInt{c.v[i], storage.IsNull(c.nulls, i)} }

// generateInventory builds the weekly inventory snapshot fact shared by
// the catalog and web channels: (week, item, warehouse) combinations
// covering the sales window.
func (g *Generator) generateInventory(db *storage.DB) *storage.Table {
	def := g.defs["inventory"]
	t := storage.NewTable(def)
	s := g.stream("inventory", "row")
	nItem := int64(db.Table("item").NumRows())
	nWH := int64(db.Table("warehouse").NumRows())
	target := g.rows("inventory")
	// Snapshot Mondays: 1900-01-01 was a Monday; find the first Monday
	// of the sales window.
	day := storage.DaysFromYMD(FirstSalesYear, 1, 1)
	for storage.Weekday(day) != 1 {
		day++
	}
	weeks := int64(SalesYears * 52)
	t.Grow(int(min(target, weeks*nItem*nWH)))
	w := t.Writer()
	var emitted int64
	for week := int64(0); week < weeks && emitted < target; week++ {
		dateSK := storage.DateSK(day + week*7)
		for it := int64(1); it <= nItem && emitted < target; it++ {
			for wh := int64(1); wh <= nWH && emitted < target; wh++ {
				w.Int(dateSK)
				w.Int(it)
				w.Int(wh)
				maybeNull(s, 2, s.Int63n(1000)).write(w)
				w.EndRow()
				emitted++
			}
		}
	}
	w.Close()
	return t
}
