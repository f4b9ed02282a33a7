package datagen

import (
	"fmt"
	"strings"

	"tpcds/internal/dist"
	"tpcds/internal/rng"
	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

// scdRow describes one emitted revision of a history-keeping dimension
// entity (§3.3.2: the initial population already contains the effects of
// previous data maintenance, with up to 3 revisions per entity).
type scdRow struct {
	sk       int64   // surrogate key, dense 1..n
	entity   int64   // business entity id (shared across revisions)
	rev      int     // 0-based revision index
	revCount int     // total revisions of this entity
	recStart int64   // days since epoch
	recEnd   nullInt // days since epoch, NULL for the newest revision
}

// forEachSCDRow emits exactly n rows of SCD revisions. Revision counts
// per entity are drawn in {1,2,3}; revision validity ranges partition
// the sales window, with the newest revision open-ended (NULL
// rec_end_date — "the row containing NULL ... is the most current row",
// §4.2).
func forEachSCDRow(s *rng.Stream, n int64, fn func(scdRow)) {
	windowStart := storage.DaysFromYMD(FirstSalesYear, 1, 1)
	windowEnd := storage.DaysFromYMD(LastSalesYear, 12, 31)
	span := windowEnd - windowStart
	sk := int64(1)
	entity := int64(1)
	for sk <= n {
		revCount := 1 + s.Intn(3)
		if remaining := n - sk + 1; int64(revCount) > remaining {
			revCount = int(remaining)
		}
		for rev := 0; rev < revCount; rev++ {
			start := windowStart + span*int64(rev)/int64(revCount)
			end := nullInt{null: true}
			if rev < revCount-1 {
				end = nullInt{v: windowStart + span*int64(rev+1)/int64(revCount) - 1}
			}
			fn(scdRow{sk: sk, entity: entity, rev: rev, revCount: revCount,
				recStart: start, recEnd: end})
			sk++
		}
		entity++
	}
}

// address is a synthesized US address with domain-scaled county choice.
type address struct {
	streetNumber, streetName, streetType, suite string
	city, county, state, zip, country           string
	gmtOffset                                   float64
}

func genAddress(s *rng.Stream, countyDomain int) address {
	stateIdx := s.Intn(len(dist.States))
	return address{
		streetNumber: fmt.Sprintf("%d", s.Range(1, 999)),
		streetName:   pickUniform(s, dist.StreetNames) + " " + pickUniform(s, dist.StreetNames),
		streetType:   pickUniform(s, dist.StreetTypes),
		suite:        fmt.Sprintf("Suite %d", s.Range(0, 99)*10),
		city:         pickGaussian(s, dist.Cities),
		county:       dist.Counties[s.Intn(countyDomain)],
		state:        dist.States[stateIdx],
		zip:          fmt.Sprintf("%05d", s.Range(10000, 99999)),
		country:      dist.Countries[0],
		gmtOffset:    -5 - float64(stateIdx%4),
	}
}

// write writes the address columns, street number through GMT offset.
func (a *address) write(w *storage.Writer) {
	for _, v := range [...]string{a.streetNumber, a.streetName, a.streetType, a.suite,
		a.city, a.county, a.state, a.zip, a.country} {
		w.Str(v)
	}
	w.Float(a.gmtOffset)
}

// writeSCD writes the four columns every history-keeping dimension
// starts with: surrogate key, business key and the revision's range.
func (r scdRow) writeSCD(w *storage.Writer) {
	w.Int(r.sk)
	w.Str(bkey(r.entity))
	w.Int(r.recStart)
	r.recEnd.write(w)
}

// manager draws a manager's full name.
func manager(s *rng.Stream) string {
	return pickGaussian(s, dist.FirstNames) + " " + pickGaussian(s, dist.LastNames)
}

// genItem builds the item dimension with the Figure 5 single-inheritance
// hierarchy (brand -> class -> category) and SCD revisions.
func (g *Generator) genItem(def *schema.Table) *storage.Table {
	t := storage.NewTable(def)
	s := g.stream("item", "row")
	w := t.Writer()
	forEachSCDRow(s, g.rows("item"), func(r scdRow) {
		catIdx := int(r.entity) % len(dist.Categories)
		category := dist.Categories[catIdx]
		classes := dist.ClassesByCategory[category]
		classIdx := int(r.entity/int64(len(dist.Categories))) % len(classes)
		class := classes[classIdx]
		brandNum := int(r.entity)%10 + 1
		brandID := int64(catIdx+1)*1000000 + int64(classIdx+1)*1000 + int64(brandNum)
		brand := fmt.Sprintf("%s%s #%d",
			strings.ToLower(strings.ReplaceAll(category, " ", "")),
			"brand", brandNum)
		price := money(0.09 + s.Float64()*99.0)
		// Prices drift across revisions: the SCD exists so queries can
		// compare sales under old and new pricing (§3.3.2).
		price = money(price * (1 + 0.05*float64(r.rev)))
		wholesale := money(price * (0.4 + s.Float64()*0.4))
		r.writeSCD(w)                                      // i_item_sk, i_item_id, i_rec_start_date, i_rec_end_date
		w.Str(wordText(s, 12, 200))                        // i_item_desc
		w.Float(price)                                     // i_current_price
		w.Float(wholesale)                                 // i_wholesale_cost
		w.Int(brandID)                                     // i_brand_id
		w.Str(brand)                                       // i_brand
		w.Int(int64(classIdx + 1))                         // i_class_id
		w.Str(class)                                       // i_class
		w.Int(int64(catIdx + 1))                           // i_category_id
		w.Str(category)                                    // i_category
		w.Int(r.entity%1000 + 1)                           // i_manufact_id
		w.Str(fmt.Sprintf("manufact#%d", r.entity%1000+1)) // i_manufact
		w.Str(pickUniform(s, dist.Sizes))                  // i_size
		w.Str(wordText(s, 2, 20))                          // i_formulation
		w.Str(pickUniform(s, dist.Colors))                 // i_color
		w.Str(pickUniform(s, dist.Units))                  // i_units
		w.Str(dist.Containers[0])                          // i_container
		w.Int(s.Range(1, 100))                             // i_manager_id
		w.Str(wordText(s, 3, 50))                          // i_product_name
		w.EndRow()
	})
	w.Close()
	return t
}

// genCustomerAddress builds customer addresses.
func (g *Generator) genCustomerAddress(def *schema.Table) *storage.Table {
	t := storage.NewTable(def)
	s := g.stream("customer_address", "row")
	n := g.rows("customer_address")
	countyDomain := dist.DomainScale(len(dist.Counties), n)
	w := t.Writer()
	for i := int64(1); i <= n; i++ {
		a := genAddress(s, countyDomain)
		w.Int(i)                                  // ca_address_sk
		w.Str(bkey(i))                            // ca_address_id
		a.write(w)                                // ca_street_number ... ca_gmt_offset
		w.Str(pickUniform(s, dist.LocationTypes)) // ca_location_type
		w.EndRow()
	}
	w.Close()
	return t
}

// genCustomer builds the customer dimension with frequent-name skew.
func (g *Generator) genCustomer(def *schema.Table) *storage.Table {
	t := storage.NewTable(def)
	s := g.stream("customer", "row")
	n := g.rows("customer")
	nAddr := g.rows("customer_address")
	nCDemo := g.rows("customer_demographics")
	nHDemo := g.rows("household_demographics")
	firstSale := storage.DaysFromYMD(FirstSalesYear, 1, 1)
	w := t.Writer()
	for i := int64(1); i <= n; i++ {
		first := pickGaussian(s, dist.FirstNames)
		last := pickGaussian(s, dist.LastNames)
		preferred := "N"
		if s.Intn(2) == 0 {
			preferred = "Y"
		}
		firstSalesDay := firstSale + s.Int63n(365*SalesYears)
		email := fmt.Sprintf("%s.%s@example.com", strings.ToLower(first), strings.ToLower(last))
		w.Int(i)                                             // c_customer_sk
		w.Str(bkey(i))                                       // c_customer_id
		maybeNull(s, 2, 1+s.Int63n(nCDemo)).write(w)         // c_current_cdemo_sk
		maybeNull(s, 2, 1+s.Int63n(nHDemo)).write(w)         // c_current_hdemo_sk
		w.Int(1 + s.Int63n(nAddr))                           // c_current_addr_sk
		w.Int(storage.DateSK(firstSalesDay + 30))            // c_first_shipto_date_sk
		w.Int(storage.DateSK(firstSalesDay))                 // c_first_sales_date_sk
		w.Str(pickUniform(s, dist.Salutations))              // c_salutation
		w.Str(first)                                         // c_first_name
		w.Str(last)                                          // c_last_name
		w.Str(preferred)                                     // c_preferred_cust_flag
		w.Int(s.Range(1, 28))                                // c_birth_day
		w.Int(s.Range(1, 12))                                // c_birth_month
		w.Int(s.Range(1924, 1992))                           // c_birth_year
		w.Str(dist.Countries[0])                             // c_birth_country
		w.Null()                                             // c_login
		w.Str(email)                                         // c_email_address
		w.Int(storage.DateSK(firstSalesDay + s.Int63n(300))) // c_last_review_date_sk
		w.EndRow()
	}
	w.Close()
	return t
}

// genStore builds the store dimension (history keeping) with the §3.1
// domain-scaled county list.
func (g *Generator) genStore(def *schema.Table) *storage.Table {
	t := storage.NewTable(def)
	s := g.stream("store", "row")
	n := g.rows("store")
	countyDomain := dist.DomainScale(len(dist.Counties), n)
	w := t.Writer()
	forEachSCDRow(s, n, func(r scdRow) {
		a := genAddress(s, countyDomain)
		r.writeSCD(w)                                                             // s_store_sk, s_store_id, s_rec_start_date, s_rec_end_date
		w.Null()                                                                  // s_closed_date_sk
		w.Str(fmt.Sprintf("%s store #%d", pickUniform(s, dist.Cities), r.entity)) // s_store_name
		w.Int(s.Range(200, 300))                                                  // s_number_employees
		w.Int(s.Range(5000000, 9999999))                                          // s_floor_space
		w.Str("8AM-8PM")                                                          // s_hours
		w.Str(manager(s))                                                         // s_manager
		w.Int(s.Range(1, 10))                                                     // s_market_id
		w.Str("Unknown")                                                          // s_geography_class
		w.Str(wordText(s, 10, 100))                                               // s_market_desc
		w.Str(manager(s))                                                         // s_market_manager
		w.Int(s.Range(1, 5))                                                      // s_division_id
		w.Str("Unknown")                                                          // s_division_name
		w.Int(s.Range(1, 5))                                                      // s_company_id
		w.Str("Unknown")                                                          // s_company_name
		a.write(w)                                                                // s_street_number ... s_gmt_offset
		w.Float(money(s.Float64() * 0.11))                                        // s_tax_percentage
		w.EndRow()
	})
	w.Close()
	return t
}

// genCallCenter builds the call-center dimension (history keeping,
// reporting channel).
func (g *Generator) genCallCenter(def *schema.Table) *storage.Table {
	t := storage.NewTable(def)
	s := g.stream("call_center", "row")
	n := g.rows("call_center")
	countyDomain := dist.DomainScale(len(dist.Counties), n)
	openDay := storage.DaysFromYMD(FirstSalesYear-8, 1, 1)
	w := t.Writer()
	forEachSCDRow(s, n, func(r scdRow) {
		a := genAddress(s, countyDomain)
		r.writeSCD(w)                                                // cc_call_center_sk, cc_call_center_id, cc_rec_start_date, cc_rec_end_date
		w.Null()                                                     // cc_closed_date_sk
		w.Int(storage.DateSK(openDay + s.Int63n(2000)))              // cc_open_date_sk
		w.Str(fmt.Sprintf("%s center", pickUniform(s, dist.Cities))) // cc_name
		w.Str(pickUniform(s, []string{"small", "medium", "large"}))  // cc_class
		w.Int(s.Range(100, 700))                                     // cc_employees
		w.Int(s.Range(10000, 50000))                                 // cc_sq_ft
		w.Str("8AM-8PM")                                             // cc_hours
		w.Str(manager(s))                                            // cc_manager
		w.Int(s.Range(1, 6))                                         // cc_mkt_id
		w.Str(wordText(s, 4, 50))                                    // cc_mkt_class
		w.Str(wordText(s, 10, 100))                                  // cc_mkt_desc
		w.Str(manager(s))                                            // cc_market_manager
		w.Int(s.Range(1, 5))                                         // cc_division
		w.Str(wordText(s, 2, 50))                                    // cc_division_name
		w.Int(s.Range(1, 6))                                         // cc_company
		w.Str(wordText(s, 1, 50))                                    // cc_company_name
		a.write(w)                                                   // cc_street_number ... cc_gmt_offset
		w.Float(money(s.Float64() * 0.12))                           // cc_tax_percentage
		w.EndRow()
	})
	w.Close()
	return t
}

// genCatalogPage builds the catalog-page dimension.
func (g *Generator) genCatalogPage(def *schema.Table) *storage.Table {
	t := storage.NewTable(def)
	s := g.stream("catalog_page", "row")
	n := g.rows("catalog_page")
	start := storage.DaysFromYMD(FirstSalesYear, 1, 1)
	w := t.Writer()
	for i := int64(1); i <= n; i++ {
		catalogNumber := (i-1)/108 + 1 // 108 pages per catalog, dsdgen-style
		pageNumber := (i-1)%108 + 1
		pageStart := start + (catalogNumber-1)*30
		w.Int(i)                                                             // cp_catalog_page_sk
		w.Str(bkey(i))                                                       // cp_catalog_page_id
		w.Int(storage.DateSK(pageStart))                                     // cp_start_date_sk
		w.Int(storage.DateSK(pageStart + 89))                                // cp_end_date_sk
		w.Str("DEPARTMENT")                                                  // cp_department
		w.Int(catalogNumber)                                                 // cp_catalog_number
		w.Int(pageNumber)                                                    // cp_catalog_page_number
		w.Str(wordText(s, 8, 100))                                           // cp_description
		w.Str(pickUniform(s, []string{"bi-annual", "quarterly", "monthly"})) // cp_type
		w.EndRow()
	}
	w.Close()
	return t
}

// genWebSite builds the web-site dimension (history keeping).
func (g *Generator) genWebSite(def *schema.Table) *storage.Table {
	t := storage.NewTable(def)
	s := g.stream("web_site", "row")
	n := g.rows("web_site")
	countyDomain := dist.DomainScale(len(dist.Counties), n)
	openDay := storage.DaysFromYMD(FirstSalesYear-3, 1, 1)
	w := t.Writer()
	forEachSCDRow(s, n, func(r scdRow) {
		a := genAddress(s, countyDomain)
		r.writeSCD(w)                                                        // web_site_sk, web_site_id, web_rec_start_date, web_rec_end_date
		w.Str(fmt.Sprintf("site_%d", r.entity))                              // web_name
		w.Int(storage.DateSK(openDay + s.Int63n(1000)))                      // web_open_date_sk
		w.Null()                                                             // web_close_date_sk
		w.Str("Unknown")                                                     // web_class
		w.Str(manager(s))                                                    // web_manager
		w.Int(s.Range(1, 6))                                                 // web_mkt_id
		w.Str(wordText(s, 4, 50))                                            // web_mkt_class
		w.Str(wordText(s, 10, 100))                                          // web_mkt_desc
		w.Str(manager(s))                                                    // web_market_manager
		w.Int(s.Range(1, 6))                                                 // web_company_id
		w.Str(pickUniform(s, []string{"pri", "sec", "able", "ese", "anti"})) // web_company_name
		a.write(w)                                                           // web_street_number ... web_gmt_offset
		w.Float(money(s.Float64() * 0.12))                                   // web_tax_percentage
		w.EndRow()
	})
	w.Close()
	return t
}

// genWebPage builds the web-page dimension (history keeping).
func (g *Generator) genWebPage(def *schema.Table) *storage.Table {
	t := storage.NewTable(def)
	s := g.stream("web_page", "row")
	nCust := g.rows("customer")
	creation := storage.DaysFromYMD(FirstSalesYear, 1, 1)
	w := t.Writer()
	forEachSCDRow(s, g.rows("web_page"), func(r scdRow) {
		autogen := "0"
		cust := nullInt{null: true}
		if s.Intn(2) == 0 {
			autogen = "1"
			cust = nullInt{v: 1 + s.Int63n(nCust)}
		}
		r.writeSCD(w)                                                                                            // wp_web_page_sk, wp_web_page_id, wp_rec_start_date, wp_rec_end_date
		w.Int(storage.DateSK(creation + s.Int63n(365)))                                                          // wp_creation_date_sk
		w.Int(storage.DateSK(creation + s.Int63n(365*SalesYears)))                                               // wp_access_date_sk
		w.Str(autogen)                                                                                           // wp_autogen_flag
		cust.write(w)                                                                                            // wp_customer_sk
		w.Str(fmt.Sprintf("http://www.example.com/page_%d.html", r.entity))                                      // wp_url
		w.Str(pickUniform(s, []string{"order", "welcome", "protected", "dynamic", "feedback", "general", "ad"})) // wp_type
		w.Int(s.Range(100, 8000))                                                                                // wp_char_count
		w.Int(s.Range(1, 25))                                                                                    // wp_link_count
		w.Int(s.Range(1, 7))                                                                                     // wp_image_count
		w.Int(s.Range(0, 4))                                                                                     // wp_max_ad_count
		w.EndRow()
	})
	w.Close()
	return t
}

// genWarehouse builds the warehouse dimension.
func (g *Generator) genWarehouse(def *schema.Table) *storage.Table {
	t := storage.NewTable(def)
	s := g.stream("warehouse", "row")
	n := g.rows("warehouse")
	countyDomain := dist.DomainScale(len(dist.Counties), n)
	w := t.Writer()
	for i := int64(1); i <= n; i++ {
		a := genAddress(s, countyDomain)
		w.Int(i)                       // w_warehouse_sk
		w.Str(bkey(i))                 // w_warehouse_id
		w.Str(wordText(s, 2, 20))      // w_warehouse_name
		w.Int(s.Range(50000, 1000000)) // w_warehouse_sq_ft
		a.write(w)                     // w_street_number ... w_gmt_offset
		w.EndRow()
	}
	w.Close()
	return t
}

// genPromotion builds the promotion dimension.
func (g *Generator) genPromotion(def *schema.Table) *storage.Table {
	t := storage.NewTable(def)
	s := g.stream("promotion", "row")
	n := g.rows("promotion")
	nItem := g.rows("item")
	windowStart := storage.DaysFromYMD(FirstSalesYear, 1, 1)
	w := t.Writer()
	yn := func() {
		if s.Intn(2) == 0 {
			w.Str("Y")
		} else {
			w.Str("N")
		}
	}
	for i := int64(1); i <= n; i++ {
		start := windowStart + s.Int63n(365*SalesYears)
		w.Int(i)                                                                                                // p_promo_sk
		w.Str(bkey(i))                                                                                          // p_promo_id
		w.Int(storage.DateSK(start))                                                                            // p_start_date_sk
		w.Int(storage.DateSK(start + s.Int63n(60)))                                                             // p_end_date_sk
		w.Int(1 + s.Int63n(nItem))                                                                              // p_item_sk
		w.Float(money(s.Float64() * 1000))                                                                      // p_cost
		w.Int(s.Range(1, 3))                                                                                    // p_response_target
		w.Str(pickUniform(s, []string{"ought", "able", "pri", "ese", "anti", "cally", "ation", "eing", "bar"})) // p_promo_name
		for range 8 {
			yn() // p_channel_dmail ... p_channel_demo
		}
		w.Str(wordText(s, 6, 100)) // p_channel_details
		w.Str("Unknown")           // p_purpose
		yn()                       // p_discount_active
		w.EndRow()
	}
	w.Close()
	return t
}
