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
// items per shopping cart) sharing a date, customer and outlet.
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
	var emitted, ticket int64
	for emitted < target {
		ticket++
		k := int64(1 + s.Poisson(9.5))
		if k > target-emitted {
			k = target - emitted
		}
		day := pickSalesDate(s)
		dateSK := storage.Int(storage.DateSK(day))
		timeSK := maybeNull(s, 2, storage.Int(1+s.Int63n(d.timeRows)))
		cust := maybeNull(s, 3, storage.Int(1+s.Int63n(d.customer)))
		cdemo := maybeNull(s, 3, storage.Int(1+s.Int63n(d.cdemo)))
		hdemo := maybeNull(s, 3, storage.Int(1+s.Int63n(d.hdemo)))
		addr := maybeNull(s, 3, storage.Int(1+s.Int63n(d.addr)))
		for j := int64(0); j < k; j++ {
			item := 1 + s.Int63n(d.item)
			promo := maybeNull(s, 50, storage.Int(1+s.Int63n(d.promo)))
			li := genLineItem(s)
			switch name {
			case "store_sales":
				t.Append([]storage.Value{
					dateSK, timeSK, storage.Int(item), cust, cdemo, hdemo, addr,
					maybeNull(s, 2, storage.Int(1+s.Int63n(d.store))),
					promo, storage.Int(ticket), storage.Int(li.quantity),
					storage.Float(li.wholesale), storage.Float(li.list),
					storage.Float(li.sales), storage.Float(li.extDiscount),
					storage.Float(li.extSales), storage.Float(li.extWholesale),
					storage.Float(li.extList), storage.Float(li.extTax),
					storage.Float(li.coupon), storage.Float(li.netPaid),
					storage.Float(li.netPaidIncTax), storage.Float(li.netProfit),
				})
			case "catalog_sales":
				shipDate := storage.Int(storage.DateSK(day + 2 + s.Int63n(88)))
				t.Append([]storage.Value{
					dateSK, timeSK, shipDate,
					cust, cdemo, hdemo, addr, // bill_*
					cust, cdemo, hdemo, addr, // ship_* (same household)
					maybeNull(s, 2, storage.Int(1+s.Int63n(d.callCenter))),
					maybeNull(s, 2, storage.Int(1+s.Int63n(d.catalogPage))),
					maybeNull(s, 2, storage.Int(1+s.Int63n(d.shipMode))),
					maybeNull(s, 2, storage.Int(1+s.Int63n(d.wh))),
					storage.Int(item), promo, storage.Int(ticket),
					storage.Int(li.quantity),
					storage.Float(li.wholesale), storage.Float(li.list),
					storage.Float(li.sales), storage.Float(li.extDiscount),
					storage.Float(li.extSales), storage.Float(li.extWholesale),
					storage.Float(li.extList), storage.Float(li.extTax),
					storage.Float(li.coupon), storage.Float(li.extShipCost),
					storage.Float(li.netPaid), storage.Float(li.netPaidIncTax),
					storage.Float(li.netPaidIncShip), storage.Float(li.netPIST),
					storage.Float(li.netProfit),
				})
			case "web_sales":
				shipDate := storage.Int(storage.DateSK(day + 1 + s.Int63n(60)))
				t.Append([]storage.Value{
					dateSK, timeSK, shipDate, storage.Int(item),
					cust, cdemo, hdemo, addr, // bill_*
					cust, cdemo, hdemo, addr, // ship_*
					maybeNull(s, 2, storage.Int(1+s.Int63n(d.webPage))),
					maybeNull(s, 2, storage.Int(1+s.Int63n(d.webSite))),
					maybeNull(s, 2, storage.Int(1+s.Int63n(d.shipMode))),
					maybeNull(s, 2, storage.Int(1+s.Int63n(d.wh))),
					promo, storage.Int(ticket), storage.Int(li.quantity),
					storage.Float(li.wholesale), storage.Float(li.list),
					storage.Float(li.sales), storage.Float(li.extDiscount),
					storage.Float(li.extSales), storage.Float(li.extWholesale),
					storage.Float(li.extList), storage.Float(li.extTax),
					storage.Float(li.coupon), storage.Float(li.extShipCost),
					storage.Float(li.netPaid), storage.Float(li.netPaidIncTax),
					storage.Float(li.netPaidIncShip), storage.Float(li.netPIST),
					storage.Float(li.netProfit),
				})
			default:
				panic("datagen: generateSales on non-sales table " + name)
			}
			emitted++
		}
	}
	return t
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
	sdef := sales.Def
	colOf := func(col string) int { return sdef.ColumnIndex(col) }
	// Per-channel source column positions in the sales fact.
	var cDate, cItem, cOrder, cCust, cCDemo, cHDemo, cAddr, cStore, cQty int
	switch name {
	case "store_returns":
		cDate, cItem, cOrder = colOf("ss_sold_date_sk"), colOf("ss_item_sk"), colOf("ss_ticket_number")
		cCust, cCDemo, cHDemo = colOf("ss_customer_sk"), colOf("ss_cdemo_sk"), colOf("ss_hdemo_sk")
		cAddr, cStore, cQty = colOf("ss_addr_sk"), colOf("ss_store_sk"), colOf("ss_quantity")
	case "catalog_returns":
		cDate, cItem, cOrder = colOf("cs_sold_date_sk"), colOf("cs_item_sk"), colOf("cs_order_number")
		cCust, cCDemo, cHDemo = colOf("cs_bill_customer_sk"), colOf("cs_bill_cdemo_sk"), colOf("cs_bill_hdemo_sk")
		cAddr, cStore, cQty = colOf("cs_bill_addr_sk"), colOf("cs_call_center_sk"), colOf("cs_quantity")
	case "web_returns":
		cDate, cItem, cOrder = colOf("ws_sold_date_sk"), colOf("ws_item_sk"), colOf("ws_order_number")
		cCust, cCDemo, cHDemo = colOf("ws_bill_customer_sk"), colOf("ws_bill_cdemo_sk"), colOf("ws_bill_hdemo_sk")
		cAddr, cStore, cQty = colOf("ws_bill_addr_sk"), colOf("ws_web_page_sk"), colOf("ws_quantity")
	default:
		panic("datagen: generateReturns on non-returns table " + name)
	}
	// Stride through the sales fact so returns cover the full history.
	stride := nSales / target
	if stride < 1 {
		stride = 1
	}
	for i := int64(0); i < target; i++ {
		saleRow := int((i * stride) % nSales)
		soldDateSK := sales.Get(saleRow, cDate)
		var returnedDay int64
		if soldDateSK.IsNull() {
			returnedDay = pickSalesDate(s)
		} else {
			returnedDay = storage.DaysFromSK(soldDateSK.AsInt()) + 1 + s.Int63n(90)
		}
		item := sales.Get(saleRow, cItem)
		order := sales.Get(saleRow, cOrder)
		soldQty := sales.Get(saleRow, cQty).AsInt()
		if soldQty < 1 {
			soldQty = 1
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
		timeSK := maybeNull(s, 2, storage.Int(1+s.Int63n(d.timeRows)))
		retDate := storage.Int(storage.DateSK(returnedDay))
		switch name {
		case "store_returns":
			t.Append([]storage.Value{
				retDate, timeSK, item,
				sales.Get(saleRow, cCust), sales.Get(saleRow, cCDemo),
				sales.Get(saleRow, cHDemo), sales.Get(saleRow, cAddr),
				sales.Get(saleRow, cStore),
				maybeNull(s, 2, storage.Int(1+s.Int63n(d.reason))),
				order, storage.Int(retQty),
				storage.Float(amt), storage.Float(tax), storage.Float(money(amt + tax)),
				storage.Float(fee), storage.Float(shipCost), storage.Float(refunded),
				storage.Float(reversed), storage.Float(credit), storage.Float(loss),
			})
		case "catalog_returns":
			t.Append([]storage.Value{
				retDate, timeSK, item,
				sales.Get(saleRow, cCust), sales.Get(saleRow, cCDemo),
				sales.Get(saleRow, cHDemo), sales.Get(saleRow, cAddr),
				sales.Get(saleRow, cCust), sales.Get(saleRow, cCDemo),
				sales.Get(saleRow, cHDemo), sales.Get(saleRow, cAddr),
				sales.Get(saleRow, cStore), // cr_call_center_sk from cs_call_center_sk
				maybeNull(s, 2, storage.Int(1+s.Int63n(d.catalogPage))),
				maybeNull(s, 2, storage.Int(1+s.Int63n(d.shipMode))),
				maybeNull(s, 2, storage.Int(1+s.Int63n(d.wh))),
				maybeNull(s, 2, storage.Int(1+s.Int63n(d.reason))),
				order, storage.Int(retQty),
				storage.Float(amt), storage.Float(tax), storage.Float(money(amt + tax)),
				storage.Float(fee), storage.Float(shipCost), storage.Float(refunded),
				storage.Float(reversed), storage.Float(credit), storage.Float(loss),
			})
		case "web_returns":
			t.Append([]storage.Value{
				retDate, timeSK, item,
				sales.Get(saleRow, cCust), sales.Get(saleRow, cCDemo),
				sales.Get(saleRow, cHDemo), sales.Get(saleRow, cAddr),
				sales.Get(saleRow, cCust), sales.Get(saleRow, cCDemo),
				sales.Get(saleRow, cHDemo), sales.Get(saleRow, cAddr),
				sales.Get(saleRow, cStore), // wr_web_page_sk from ws_web_page_sk
				maybeNull(s, 2, storage.Int(1+s.Int63n(d.reason))),
				order, storage.Int(retQty),
				storage.Float(amt), storage.Float(tax), storage.Float(money(amt + tax)),
				storage.Float(fee), storage.Float(shipCost), storage.Float(refunded),
				storage.Float(reversed), storage.Float(credit), storage.Float(loss),
			})
		}
	}
	return t
}

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
	var emitted int64
	for w := int64(0); w < weeks && emitted < target; w++ {
		weekDay := day + w*7
		for it := int64(1); it <= nItem && emitted < target; it++ {
			for wh := int64(1); wh <= nWH && emitted < target; wh++ {
				t.Append([]storage.Value{
					storage.Int(storage.DateSK(weekDay)),
					storage.Int(it),
					storage.Int(wh),
					maybeNull(s, 2, storage.Int(s.Int63n(1000))),
				})
				emitted++
			}
		}
	}
	return t
}
