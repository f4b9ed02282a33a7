package datagen

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tpcds/internal/dist"
	"tpcds/internal/rng"
	"tpcds/internal/scaling"
	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

// testSF is small enough for fast tests but large enough that every
// table is non-degenerate (store_sales gets 2880 rows, customers 2000+).
const testSF = 0.001

// sharedDB builds one database per test binary run; the generator is
// deterministic so sharing is safe for read-only tests.
var sharedDB = New(testSF, 7).GenerateAll()

func TestAllTablesGenerated(t *testing.T) {
	for _, def := range schema.Tables() {
		tb := sharedDB.Table(def.Name)
		if tb == nil {
			t.Errorf("table %s not generated", def.Name)
			continue
		}
		if tb.NumRows() == 0 {
			t.Errorf("table %s is empty", def.Name)
		}
	}
}

func TestRowcountsMatchScalingModel(t *testing.T) {
	for _, def := range schema.Tables() {
		want := scaling.Rows(def.Name, testSF)
		got := int64(sharedDB.Table(def.Name).NumRows())
		if got != want {
			t.Errorf("%s: %d rows, scaling model says %d", def.Name, got, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := New(testSF, 7).GenerateDimension("item")
	b := New(testSF, 7).GenerateDimension("item")
	if a.NumRows() != b.NumRows() {
		t.Fatal("row counts differ across identical generators")
	}
	for r := 0; r < a.NumRows(); r++ {
		for c := 0; c < a.NumCols(); c++ {
			if !storage.Equal(a.Get(r, c), b.Get(r, c)) {
				t.Fatalf("item row %d col %d differs: %v vs %v", r, c, a.Get(r, c), b.Get(r, c))
			}
		}
	}
	// A different seed must produce different content.
	c := New(testSF, 8).GenerateDimension("item")
	same := true
	for r := 0; r < a.NumRows() && same; r++ {
		if !storage.Equal(a.Get(r, 5), c.Get(r, 5)) { // i_current_price
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical item prices")
	}
}

// TestReferentialIntegrity: every non-null foreign key value joins to an
// existing surrogate key in the referenced dimension.
func TestReferentialIntegrity(t *testing.T) {
	for _, def := range schema.Tables() {
		tb := sharedDB.Table(def.Name)
		for _, fkDef := range def.ForeignKeys {
			ref := sharedDB.Table(fkDef.Ref)
			maxSK := int64(ref.NumRows())
			col := def.ColumnIndex(fkDef.Column)
			bad := 0
			for r := 0; r < tb.NumRows(); r++ {
				v := tb.Get(r, col)
				if v.IsNull() {
					continue
				}
				// Surrogate keys are dense 1..N in every dimension except
				// date/time whose SK space is the full calendar.
				lo, hi := int64(1), maxSK
				if v.AsInt() < lo || v.AsInt() > hi {
					bad++
				}
			}
			if bad > 0 {
				t.Errorf("%s.%s: %d dangling references into %s",
					def.Name, fkDef.Column, bad, fkDef.Ref)
			}
		}
	}
}

// TestFactToFactJoin: the returns facts must join back to their sales
// fact on the (item, ticket/order) pair (§2.2).
func TestFactToFactJoin(t *testing.T) {
	for _, link := range schema.FactLinks() {
		ret := sharedDB.Table(link.From)
		sales := sharedDB.Table(link.To)
		// Build the set of (item, order) pairs in the sales fact.
		salesDef := sales.Def
		itemCol := salesDef.ColumnIndex(salesDef.PrimaryKey[0])
		orderCol := salesDef.ColumnIndex(salesDef.PrimaryKey[1])
		pairs := map[[2]int64]bool{}
		for r := 0; r < sales.NumRows(); r++ {
			pairs[[2]int64{sales.Get(r, itemCol).AsInt(), sales.Get(r, orderCol).AsInt()}] = true
		}
		rItem := ret.Def.ColumnIndex(link.Columns[0])
		rOrder := ret.Def.ColumnIndex(link.Columns[1])
		misses := 0
		for r := 0; r < ret.NumRows(); r++ {
			key := [2]int64{ret.Get(r, rItem).AsInt(), ret.Get(r, rOrder).AsInt()}
			if !pairs[key] {
				misses++
			}
		}
		if misses > 0 {
			t.Errorf("%s: %d/%d rows do not join back to %s", link.From, misses, ret.NumRows(), link.To)
		}
	}
}

// TestSeasonality: store_sales dates must follow the Figure 2 zones —
// December clearly busier than a low-zone month, months within a zone
// close to uniform.
func TestSeasonality(t *testing.T) {
	ss := sharedDB.Table("store_sales")
	dateCol := ss.Def.ColumnIndex("ss_sold_date_sk")
	counts := make([]int, 13)
	for r := 0; r < ss.NumRows(); r++ {
		v := ss.Get(r, dateCol)
		if v.IsNull() {
			continue
		}
		_, m, _ := storage.YMDFromDays(storage.DaysFromSK(v.AsInt()))
		counts[m]++
	}
	if counts[12] <= counts[3] {
		t.Errorf("December sales (%d) not above March (%d): seasonality missing",
			counts[12], counts[3])
	}
	if counts[11] <= counts[5] {
		t.Errorf("November sales (%d) not above May (%d)", counts[11], counts[5])
	}
}

// TestSCDRevisions (§3.3.2): history-keeping dimensions carry 1-3
// revisions per business key, exactly one open (NULL rec_end_date), with
// non-overlapping validity ranges.
func TestSCDRevisions(t *testing.T) {
	for _, def := range schema.Tables() {
		if def.SCD != schema.HistoryKeeping {
			continue
		}
		tb := sharedDB.Table(def.Name)
		bkCol := def.ColumnIndex(def.BusinessKey)
		var startCol, endCol int
		for i, c := range def.Columns {
			if len(c.Name) > 14 && c.Name[len(c.Name)-14:] == "rec_start_date" {
				startCol = i
			}
			if len(c.Name) > 12 && c.Name[len(c.Name)-12:] == "rec_end_date" {
				endCol = i
			}
		}
		type revInfo struct {
			count int
			open  int
		}
		revs := map[string]*revInfo{}
		for r := 0; r < tb.NumRows(); r++ {
			bk := tb.Get(r, bkCol).S
			ri := revs[bk]
			if ri == nil {
				ri = &revInfo{}
				revs[bk] = ri
			}
			ri.count++
			start := tb.Get(r, startCol)
			end := tb.Get(r, endCol)
			if start.IsNull() {
				t.Errorf("%s row %d: NULL rec_start_date", def.Name, r)
			}
			if end.IsNull() {
				ri.open++
			} else if storage.Compare(end, start) < 0 {
				t.Errorf("%s row %d: rec_end before rec_start", def.Name, r)
			}
		}
		for bk, ri := range revs {
			if ri.count > 3 {
				t.Errorf("%s %s: %d revisions, paper says up to 3", def.Name, bk, ri.count)
			}
			if ri.open != 1 {
				t.Errorf("%s %s: %d open revisions, want exactly 1", def.Name, bk, ri.open)
			}
		}
		if len(revs) == 0 {
			t.Errorf("%s: no business keys found", def.Name)
		}
	}
}

// TestItemHierarchy (Figure 5): in the generated items, every brand maps
// to one class and every class to one category.
func TestItemHierarchy(t *testing.T) {
	items := sharedDB.Table("item")
	def := items.Def
	brandCol := def.ColumnIndex("i_brand_id")
	classCol := def.ColumnIndex("i_class")
	catCol := def.ColumnIndex("i_category")
	classOfBrand := map[int64]string{}
	catOfClass := map[string]string{}
	for r := 0; r < items.NumRows(); r++ {
		brand := items.Get(r, brandCol).AsInt()
		class := items.Get(r, classCol).S
		cat := items.Get(r, catCol).S
		if prev, ok := classOfBrand[brand]; ok && prev != class {
			t.Fatalf("brand %d in classes %q and %q", brand, prev, class)
		}
		classOfBrand[brand] = class
		if prev, ok := catOfClass[class]; ok && prev != cat {
			t.Fatalf("class %q in categories %q and %q", class, prev, cat)
		}
		catOfClass[class] = cat
		if _, ok := dist.ClassesByCategory[cat]; !ok {
			t.Fatalf("item row %d has unknown category %q", r, cat)
		}
	}
}

func TestDateDimCalendar(t *testing.T) {
	dd := sharedDB.Table("date_dim")
	if dd.NumRows() != storage.DateDimRows {
		t.Fatalf("date_dim has %d rows, want %d", dd.NumRows(), storage.DateDimRows)
	}
	def := dd.Def
	yearCol := def.ColumnIndex("d_year")
	moyCol := def.ColumnIndex("d_moy")
	domCol := def.ColumnIndex("d_dom")
	dateCol := def.ColumnIndex("d_date")
	// Spot checks: row 0 is 1900-01-01; the SK arithmetic must agree
	// with the d_date column everywhere (sampled).
	if dd.Get(0, yearCol).AsInt() != 1900 || dd.Get(0, moyCol).AsInt() != 1 || dd.Get(0, domCol).AsInt() != 1 {
		t.Error("date_dim row 0 is not 1900-01-01")
	}
	for r := 0; r < dd.NumRows(); r += 997 {
		days := dd.Get(r, dateCol).AsInt()
		if storage.DateSK(days) != dd.Get(r, 0).AsInt() {
			t.Fatalf("date_dim row %d: SK %d does not match date %s",
				r, dd.Get(r, 0).AsInt(), storage.FormatDate(days))
		}
		y, m, d := storage.YMDFromDays(days)
		if int64(y) != dd.Get(r, yearCol).AsInt() || int64(m) != dd.Get(r, moyCol).AsInt() || int64(d) != dd.Get(r, domCol).AsInt() {
			t.Fatalf("date_dim row %d: y/m/d columns disagree with d_date", r)
		}
	}
}

func TestTimeDim(t *testing.T) {
	td := sharedDB.Table("time_dim")
	if td.NumRows() != 86400 {
		t.Fatalf("time_dim has %d rows, want 86400", td.NumRows())
	}
	def := td.Def
	hourCol := def.ColumnIndex("t_hour")
	// Second 3661 = 01:01:01.
	r := 3661
	if td.Get(r, hourCol).AsInt() != 1 {
		t.Errorf("t_hour of second 3661 = %d, want 1", td.Get(r, hourCol).AsInt())
	}
}

func TestDemographicsCrossProducts(t *testing.T) {
	cd := sharedDB.Table("customer_demographics")
	if cd.NumRows() != 1_920_800 {
		t.Errorf("customer_demographics = %d rows, want 1920800", cd.NumRows())
	}
	hd := sharedDB.Table("household_demographics")
	if hd.NumRows() != 7200 {
		t.Errorf("household_demographics = %d rows, want 7200", hd.NumRows())
	}
	ib := sharedDB.Table("income_band")
	if ib.NumRows() != 20 {
		t.Errorf("income_band = %d rows, want 20", ib.NumRows())
	}
	// Income bands must tile [0, 200000] without overlap.
	for r := 0; r < ib.NumRows(); r++ {
		lo := ib.Get(r, 1).AsInt()
		hi := ib.Get(r, 2).AsInt()
		if lo > hi {
			t.Errorf("income band %d inverted: %d > %d", r+1, lo, hi)
		}
		if r > 0 && lo != ib.Get(r-1, 2).AsInt()+1 {
			t.Errorf("income band %d does not abut previous", r+1)
		}
	}
}

// TestFrequentNamesSkew: customer first names must be skewed — the most
// frequent name should appear several times more often than a tail name.
func TestFrequentNamesSkew(t *testing.T) {
	c := sharedDB.Table("customer")
	col := c.Def.ColumnIndex("c_first_name")
	counts := map[string]int{}
	for r := 0; r < c.NumRows(); r++ {
		counts[c.Get(r, col).S]++
	}
	top := counts[dist.FirstNames[0]]
	tail := counts[dist.FirstNames[len(dist.FirstNames)-1]]
	if top <= tail*2 {
		t.Errorf("name skew missing: top name %d occurrences vs tail %d", top, tail)
	}
}

// TestLineItemConsistency: fact monetary columns are mutually consistent.
func TestLineItemConsistency(t *testing.T) {
	ss := sharedDB.Table("store_sales")
	def := ss.Def
	qty := def.ColumnIndex("ss_quantity")
	sales := def.ColumnIndex("ss_sales_price")
	extSales := def.ColumnIndex("ss_ext_sales_price")
	coupon := def.ColumnIndex("ss_coupon_amt")
	netPaid := def.ColumnIndex("ss_net_paid")
	for r := 0; r < ss.NumRows(); r += 13 {
		q := float64(ss.Get(r, qty).AsInt())
		want := ss.Get(r, sales).AsFloat() * q
		got := ss.Get(r, extSales).AsFloat()
		if diff := got - want; diff > q*0.01+0.01 || diff < -q*0.01-0.01 {
			t.Fatalf("row %d: ext_sales %v != sales*qty %v", r, got, want)
		}
		np := ss.Get(r, netPaid).AsFloat()
		wantNP := got - ss.Get(r, coupon).AsFloat()
		if diff := np - wantNP; diff > 0.02 || diff < -0.02 {
			t.Fatalf("row %d: net_paid %v != ext_sales-coupon %v", r, np, wantNP)
		}
	}
}

// TestBasketSize: average items per ticket should be near the paper's
// 10.5 ("on average each shopping cart contains 10.5 items").
func TestBasketSize(t *testing.T) {
	ss := sharedDB.Table("store_sales")
	ticketCol := ss.Def.ColumnIndex("ss_ticket_number")
	tickets := map[int64]int{}
	for r := 0; r < ss.NumRows(); r++ {
		tickets[ss.Get(r, ticketCol).AsInt()]++
	}
	avg := float64(ss.NumRows()) / float64(len(tickets))
	if avg < 8 || avg > 13 {
		t.Errorf("average basket size %.2f, paper says ~10.5", avg)
	}
}

func TestInventoryWeekly(t *testing.T) {
	inv := sharedDB.Table("inventory")
	dateCol := inv.Def.ColumnIndex("inv_date_sk")
	seen := map[int64]bool{}
	for r := 0; r < inv.NumRows(); r++ {
		sk := inv.Get(r, dateCol).AsInt()
		if !seen[sk] {
			seen[sk] = true
			if storage.Weekday(storage.DaysFromSK(sk)) != 1 {
				t.Fatalf("inventory snapshot on a %s, want Monday",
					storage.DayName(storage.DaysFromSK(sk)))
			}
		}
	}
	if len(seen) < 2 {
		t.Errorf("inventory covers %d distinct weeks, want several", len(seen))
	}
}

func TestBkey(t *testing.T) {
	if len(bkey(1)) != 16 || len(bkey(1<<40)) != 16 {
		t.Error("bkey must always be 16 chars")
	}
	if bkey(1) == bkey(2) {
		t.Error("bkey not unique")
	}
	if bkey(0) != "AAAAAAAAAAAAAAAA" {
		t.Errorf("bkey(0) = %q", bkey(0))
	}
}

func TestGeneratePanicsOnBadInput(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("New(0)", func() { New(0, 1) })
	g := New(testSF, 1)
	mustPanic("unknown dimension", func() { g.GenerateDimension("nope") })
	mustPanic("fact as dimension", func() { g.GenerateDimension("store_sales") })
}

func TestSCDHelperExactRows(t *testing.T) {
	for _, n := range []int64{1, 2, 3, 4, 7, 100} {
		var rows int64
		var lastOpen bool
		forEachSCDRow(rng.NewStream(1), n, func(r scdRow) {
			rows++
			lastOpen = r.recEnd.IsNull()
		})
		if rows != n {
			t.Errorf("forEachSCDRow(%d) emitted %d rows", n, rows)
		}
		if !lastOpen {
			t.Errorf("forEachSCDRow(%d): final revision not open", n)
		}
	}
}

func BenchmarkGenerateStoreSales(b *testing.B) {
	g := New(0.001, 1)
	db := storage.NewDB()
	for _, name := range []string{"date_dim", "time_dim", "income_band",
		"customer_demographics", "household_demographics", "reason", "ship_mode",
		"warehouse", "customer_address", "item", "customer", "store",
		"call_center", "catalog_page", "web_site", "web_page", "promotion"} {
		db.Put(g.GenerateDimension(name))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.generateSales(db, "store_sales")
	}
}

// TestParallelEqualsSequential: the MUDD property at database level —
// per-table independent streams make GenerateAll, which builds the
// tables of each phase concurrently, byte-identical to a serial
// composition of the per-table generators: every table's flat file,
// and every string column's dictionary and layout.
func TestParallelEqualsSequential(t *testing.T) {
	seq := serialGenerateAll(New(testSF, 7))
	if got, want := sharedDB.Names(), seq.Names(); !slices.Equal(got, want) {
		t.Fatalf("GenerateAll built %v, the serial composition %v", got, want)
	}
	for _, name := range seq.Names() {
		sameTable(t, name, sharedDB.Table(name), seq.Table(name))
	}
}

// serialGenerateAll builds the database one table after another, in
// the phase order GenerateAll runs.
func serialGenerateAll(g *Generator) *storage.DB {
	db := storage.NewDB()
	for _, name := range dimensionOrder {
		db.Put(g.GenerateDimension(name))
	}
	ss := g.generateSales(db, "store_sales")
	cs := g.generateSales(db, "catalog_sales")
	ws := g.generateSales(db, "web_sales")
	db.Put(ss)
	db.Put(cs)
	db.Put(ws)
	db.Put(g.generateReturns(db, "store_returns", ss))
	db.Put(g.generateReturns(db, "catalog_returns", cs))
	db.Put(g.generateReturns(db, "web_returns", ws))
	db.Put(g.generateInventory(db))
	return db
}

// sameTable fails unless got and want write the same flat file and
// every string column has the same layout and dictionary.
func sameTable(t *testing.T, name string, got, want *storage.Table) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: missing", name)
	}
	var a, b bytes.Buffer
	if err := got.WriteFlat(&a); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteFlat(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("%s: flat files differ (%d vs %d bytes, %d vs %d rows)", name, a.Len(), b.Len(), got.NumRows(), want.NumRows())
	}
	for c := 0; c < want.NumCols(); c++ {
		kind, _, _, strsA, codesA, dictA, _ := got.Col(c).Raw()
		_, _, _, strsB, codesB, dictB, _ := want.Col(c).Raw()
		if kind != storage.KindString {
			continue
		}
		if (strsA == nil) != (strsB == nil) || (codesA == nil) != (codesB == nil) || !slices.Equal(dictA, dictB) {
			t.Errorf("%s.%s: layout (plain %v, dictionary %q), want (plain %v, dictionary %q)",
				name, want.Def.Columns[c].Name, dictA == nil, dictA, dictB == nil, dictB)
		}
	}
}

func BenchmarkGenerateAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		New(0.0005, uint64(i+1)).GenerateAll()
	}
}

// TestFlatFileHashes: the flat files DumpDir writes at SF 0.002, seed
// 7, hash to the SHA-256 values in testdata, recorded from the serial,
// row-at-a-time generator and writer this package and storage had
// before generation, dumping and loading were spread over workers.
func TestFlatFileHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and dumps ≈ 95 MB of flat files")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "flat_sha256_sf0.002_seed7.txt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := New(0.002, 7).GenerateAll().DumpDir(dir); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(want)), "\n")
	if len(lines) != len(schema.Tables()) {
		t.Fatalf("%d hashes for %d tables", len(lines), len(schema.Tables()))
	}
	for _, line := range lines {
		sum, file, _ := strings.Cut(line, "  ")
		data, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != sum {
			t.Errorf("%s: SHA-256 %s, recorded %s", file, got, sum)
		}
	}
}

// TestFlatFileRoundTrip: dump the generated database to flat files and
// load it back — the dsdgen -> load-test path of the benchmark. The
// loaded database must be value-identical.
func TestFlatFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := sharedDB.DumpDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := storage.LoadDir(dir, schema.Tables())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sharedDB.Names() {
		a, b := sharedDB.Table(name), loaded.Table(name)
		if a.NumRows() != b.NumRows() {
			t.Fatalf("%s: %d vs %d rows after round trip", name, a.NumRows(), b.NumRows())
		}
		stride := a.NumRows()/40 + 1
		for r := 0; r < a.NumRows(); r += stride {
			for c := 0; c < a.NumCols(); c++ {
				av, bv := a.Get(r, c), b.Get(r, c)
				// Decimal columns round-trip at cent precision (the flat
				// format prints 2 decimals).
				if av.K == storage.KindFloat && !av.IsNull() && !bv.IsNull() {
					d := av.F - bv.F
					if d > 0.005 || d < -0.005 {
						t.Fatalf("%s (%d,%d): %v vs %v", name, r, c, av, bv)
					}
					continue
				}
				if !storage.Equal(av, bv) {
					t.Fatalf("%s (%d,%d): %v vs %v", name, r, c, av, bv)
				}
			}
		}
	}
}
