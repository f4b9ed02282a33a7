// Benchmark harness: one benchmark per table and figure of "The Making
// of TPC-DS" (VLDB 2006). Each benchmark regenerates the corresponding
// artifact — schema statistics, cardinalities, distributions, the
// example queries, maintenance algorithms, execution order, stream
// scaling, the metric — and reports the headline numbers through
// b.ReportMetric so `go test -bench=. -benchmem` prints the paper's rows.
// EXPERIMENTS.md records paper-vs-measured for each one.
package tpcds_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"tpcds/internal/datagen"
	"tpcds/internal/dist"
	"tpcds/internal/driver"
	"tpcds/internal/exec"
	"tpcds/internal/maintenance"
	"tpcds/internal/metric"
	"tpcds/internal/qgen"
	"tpcds/internal/queries"
	"tpcds/internal/rng"
	"tpcds/internal/scaling"
	"tpcds/internal/schema"
	"tpcds/internal/storage"
	"tpcds/internal/tpchlite"
)

// benchSF is the development scale factor of the benchmark database.
const benchSF = 0.002

var (
	benchOnce sync.Once
	benchEng  *exec.Engine
)

// engine lazily builds one shared database for all query benchmarks.
func engine() *exec.Engine {
	benchOnce.Do(func() {
		benchEng = exec.New(datagen.New(benchSF, 1).GenerateAll())
	})
	return benchEng
}

// ---------------------------------------------------------------------
// Table 1: schema statistics.
// ---------------------------------------------------------------------

func BenchmarkTable1SchemaStatistics(b *testing.B) {
	var s schema.Statistics
	for i := 0; i < b.N; i++ {
		s = schema.ComputeStatistics()
	}
	b.ReportMetric(float64(s.FactTables), "fact_tables")
	b.ReportMetric(float64(s.DimensionTables), "dim_tables")
	b.ReportMetric(float64(s.MinColumns), "min_cols")
	b.ReportMetric(float64(s.MaxColumns), "max_cols")
	b.ReportMetric(s.AvgColumns, "avg_cols")
	b.ReportMetric(float64(s.ForeignKeys), "foreign_keys")
	b.ReportMetric(s.AvgRowBytes, "avg_row_bytes")
}

// ---------------------------------------------------------------------
// Table 2: table cardinalities at the published scale factors.
// ---------------------------------------------------------------------

func BenchmarkTable2Cardinalities(b *testing.B) {
	tables := []string{"store_sales", "store_returns", "store", "customer", "item"}
	sfs := []float64{100, 1000, 10000, 100000}
	var sink int64
	for i := 0; i < b.N; i++ {
		for _, t := range tables {
			for _, sf := range sfs {
				sink += scaling.Rows(t, sf)
			}
		}
	}
	_ = sink
	// Headline values (in millions where the paper uses M/B).
	b.ReportMetric(float64(scaling.Rows("store_sales", 100))/1e6, "ss_100GB_Mrows")
	b.ReportMetric(float64(scaling.Rows("store_sales", 100000))/1e9, "ss_100TB_Brows")
	b.ReportMetric(float64(scaling.Rows("store", 100)), "store_100GB")
	b.ReportMetric(float64(scaling.Rows("store", 100000)), "store_100TB")
	b.ReportMetric(float64(scaling.Rows("customer", 100))/1e6, "cust_100GB_Mrows")
	b.ReportMetric(float64(scaling.Rows("item", 100000))/1e3, "item_100TB_Krows")
}

// ---------------------------------------------------------------------
// Figure 1: the store sales snowflake — exercised as the circular
// customer/address join the paper highlights in §2.2.
// ---------------------------------------------------------------------

func BenchmarkFigure1SnowflakeJoin(b *testing.B) {
	e := engine()
	q := `SELECT cur.ca_state, COUNT(*) c
	      FROM store_sales, customer, customer_address cur, customer_address sale
	      WHERE ss_customer_sk = c_customer_sk
	        AND c_current_addr_sk = cur.ca_address_sk
	        AND ss_addr_sk = sale.ca_address_sk
	      GROUP BY cur.ca_state ORDER BY c DESC LIMIT 10`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Figure 2: the zoned store-sales date distribution vs the census
// calibration series.
// ---------------------------------------------------------------------

func BenchmarkFigure2SalesDistribution(b *testing.B) {
	s := rng.NewStream(2)
	counts := make([]int, 13)
	n := 0
	for i := 0; i < b.N; i++ {
		counts[dist.PickSalesMonth(s)]++
		n++
	}
	if n >= 1200 {
		total := float64(n)
		b.ReportMetric(float64(counts[12])/total*100, "dec_pct")
		b.ReportMetric(float64(counts[11])/total*100, "nov_pct")
		b.ReportMetric(float64(counts[6])/total*100, "jun_pct")
	}
	b.ReportMetric(dist.MonthWeight(12)*100, "dec_weight_pct")
	b.ReportMetric(dist.MonthWeight(6)*100, "jun_weight_pct")
}

// ---------------------------------------------------------------------
// Figure 3: the synthetic Normal(200, 50) day-of-year distribution.
// ---------------------------------------------------------------------

func BenchmarkFigure3SyntheticDistribution(b *testing.B) {
	s := rng.NewStream(3)
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += float64(dist.SyntheticSalesDay(s))
	}
	if b.N > 1000 {
		b.ReportMetric(sum/float64(b.N), "mean_day")
	}
}

// ---------------------------------------------------------------------
// Figure 4: substitution comparability — the qualifying-row counts of
// the simple date-predicate query under zone-bound substitutions.
// ---------------------------------------------------------------------

func BenchmarkFigure4SubstitutionComparability(b *testing.B) {
	e := engine()
	s := rng.NewStream(4)
	var minRows, maxRows int
	executions := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		month := dist.PickMonthInZone(s, dist.ZoneLow)
		q := fmt.Sprintf(`SELECT d_date, SUM(ss_ext_sales_price)
			FROM store_sales, date_dim
			WHERE ss_sold_date_sk = d_date_sk AND d_moy = %d
			GROUP BY d_date`, month)
		res, err := e.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		if executions == 0 || len(res.Rows) < minRows {
			minRows = len(res.Rows)
		}
		if len(res.Rows) > maxRows {
			maxRows = len(res.Rows)
		}
		executions++
	}
	if executions > 3 && minRows > 0 {
		b.ReportMetric(float64(maxRows)/float64(minRows), "rowcount_spread")
	}
}

// ---------------------------------------------------------------------
// Figure 5: item hierarchy generation (single inheritance).
// ---------------------------------------------------------------------

func BenchmarkFigure5ItemHierarchy(b *testing.B) {
	g := datagen.New(benchSF, 1)
	var rows int
	for i := 0; i < b.N; i++ {
		t := g.GenerateDimension("item")
		rows = t.NumRows()
	}
	b.ReportMetric(float64(rows), "item_rows")
	b.ReportMetric(float64(len(dist.Categories)), "categories")
}

// ---------------------------------------------------------------------
// Figures 6 and 7: the paper's two example queries.
// ---------------------------------------------------------------------

func benchQuery(b *testing.B, id int) {
	e := engine()
	tpl, err := queries.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text, err := qgen.Instantiate(tpl, qgen.StreamSeed(1, i, tpl.ID))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Query(text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuery52AdHoc(b *testing.B)     { benchQuery(b, 52) }
func BenchmarkQuery20Reporting(b *testing.B) { benchQuery(b, 20) }

// BenchmarkAllQueriesSequential runs each of the 99 once per iteration —
// the single-stream cost of one full query run.
func BenchmarkAllQueriesSequential(b *testing.B) {
	e := engine()
	tpls := queries.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tpl := range tpls {
			text, err := qgen.Instantiate(tpl, qgen.StreamSeed(1, i, tpl.ID))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.Query(text); err != nil {
				b.Fatalf("query %d: %v", tpl.ID, err)
			}
		}
	}
	b.ReportMetric(99, "queries/op")
}

// ---------------------------------------------------------------------
// Figures 8, 9, 10: the data maintenance algorithms.
// ---------------------------------------------------------------------

func BenchmarkFigure8NonHistoryUpdate(b *testing.B) {
	eng := exec.New(datagen.New(benchSF, 8).GenerateAll())
	db := eng.DB()
	cust := db.Table("customer")
	bkCol := cust.Def.ColumnIndex("c_customer_id")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bk := cust.Get(i%cust.NumRows(), bkCol).S
		rs := &maintenance.RefreshSet{
			Sales: map[string][]maintenance.StagedSale{}, Returns: map[string][]maintenance.StagedReturn{},
			DeleteRange:  map[string][2]int64{},
			UpdateDateSK: storage.DateSK(storage.DaysFromYMD(2003, 1, 1)),
			DimUpdates: []maintenance.DimUpdate{{
				Table: "customer", BusinessKey: bk,
				Set: map[string]storage.Value{"c_email_address": storage.Str("bench@example.com")},
			}},
		}
		if _, err := maintenance.Run(eng, rs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9SCDUpdate(b *testing.B) {
	eng := exec.New(datagen.New(benchSF, 9).GenerateAll())
	db := eng.DB()
	item := db.Table("item")
	bkCol := item.Def.ColumnIndex("i_item_id")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bk := item.Get(i%item.NumRows(), bkCol).S
		rs := &maintenance.RefreshSet{
			Sales: map[string][]maintenance.StagedSale{}, Returns: map[string][]maintenance.StagedReturn{},
			DeleteRange:  map[string][2]int64{},
			UpdateDateSK: storage.DateSK(storage.DaysFromYMD(2003, 1, 1) + int64(i)),
			DimUpdates: []maintenance.DimUpdate{{
				Table: "item", BusinessKey: bk,
				Set: map[string]storage.Value{"i_current_price": storage.Float(float64(i%100) + 0.99)},
			}},
		}
		if _, err := maintenance.Run(eng, rs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10FactInsert(b *testing.B) {
	eng := exec.New(datagen.New(benchSF, 10).GenerateAll())
	db := eng.DB()
	item := db.Table("item")
	cust := db.Table("customer")
	itemBK := item.Def.ColumnIndex("i_item_id")
	custBK := cust.Def.ColumnIndex("c_customer_id")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := &maintenance.RefreshSet{
			Sales: map[string][]maintenance.StagedSale{
				"store": {{
					SoldDateSK: storage.DateSK(storage.DaysFromYMD(2001, 6, 15)),
					SoldTimeSK: 1,
					ItemID:     item.Get(i%item.NumRows(), itemBK).S,
					CustomerID: cust.Get(i%cust.NumRows(), custBK).S,
					Order:      int64(10_000_000 + i), Quantity: 5, SalesPrice: 10, Wholesale: 6,
				}},
			},
			Returns: map[string][]maintenance.StagedReturn{}, DeleteRange: map[string][2]int64{},
			UpdateDateSK: storage.DateSK(storage.DaysFromYMD(2003, 1, 1)),
		}
		if _, err := maintenance.Run(eng, rs); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Figure 11: the full benchmark execution order at tiny scale.
// ---------------------------------------------------------------------

func BenchmarkFigure11FullBenchmark(b *testing.B) {
	var lastQphDS float64
	for i := 0; i < b.N; i++ {
		res, err := driver.Run(driver.Config{
			SF: 0.0005, Streams: 1, Seed: uint64(i + 1),
			QueryIDs: []int{1, 2, 16, 20, 21, 27, 52, 66},
		})
		if err != nil {
			b.Fatal(err)
		}
		lastQphDS = res.Report.QphDS
	}
	b.ReportMetric(lastQphDS, "qphds")
}

// ---------------------------------------------------------------------
// Figure 12: stream scaling — throughput as concurrent streams grow.
// ---------------------------------------------------------------------

func BenchmarkFigure12StreamScaling(b *testing.B) {
	for _, streams := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("streams-%d", streams), func(b *testing.B) {
			var q float64
			for i := 0; i < b.N; i++ {
				res, err := driver.Run(driver.Config{
					SF: 0.0005, Streams: streams, Seed: 1,
					QueryIDs: []int{1, 9, 16, 32, 52},
				})
				if err != nil {
					b.Fatal(err)
				}
				q = res.Report.QphDS
			}
			b.ReportMetric(q, "qphds")
			b.ReportMetric(float64(metric.TotalQueries(streams)), "queries")
		})
	}
}

// ---------------------------------------------------------------------
// §5.3: the metric itself.
// ---------------------------------------------------------------------

func BenchmarkMetricQphDS(b *testing.B) {
	tm := metric.Timings{
		Load: time.Hour, QR1: 3 * time.Hour, DM: 30 * time.Minute, QR2: 3 * time.Hour,
	}
	var q float64
	for i := 0; i < b.N; i++ {
		q = metric.QphDS(1000, 7, tm)
	}
	b.ReportMetric(q, "qphds_sf1000")
	b.ReportMetric(float64(metric.TotalQueries(7)), "queries")
}

// ---------------------------------------------------------------------
// Ablation: comparability zones vs naive synthetic substitution —
// run-to-run variance of qualifying row counts (§3.2).
// ---------------------------------------------------------------------

func BenchmarkAblationZonesVsNaive(b *testing.B) {
	e := engine()
	spread := func(months []int) float64 {
		minC, maxC := -1, -1
		for _, m := range months {
			res, err := e.Query(fmt.Sprintf(
				`SELECT COUNT(*) c FROM store_sales, date_dim
				 WHERE ss_sold_date_sk = d_date_sk AND d_moy = %d`, m))
			if err != nil {
				b.Fatal(err)
			}
			c := int(res.Rows[0][0].AsInt())
			if minC < 0 || c < minC {
				minC = c
			}
			if c > maxC {
				maxC = c
			}
		}
		if minC <= 0 {
			return 0
		}
		return float64(maxC) / float64(minC)
	}
	var zoned, naive float64
	for i := 0; i < b.N; i++ {
		zoned = spread([]int{1, 3, 5, 7}) // all zone 1: comparable
		naive = spread([]int{3, 9, 12})   // across zones: incomparable
	}
	b.ReportMetric(zoned, "zoned_spread")
	b.ReportMetric(naive, "naive_spread")
}

// ---------------------------------------------------------------------
// Baseline: the TPC-H-style workload and its geometric-mean power
// metric (§1's comparison).
// ---------------------------------------------------------------------

func BenchmarkBaselineTPCHLite(b *testing.B) {
	db := tpchlite.Generate(0.002, 1)
	e := exec.New(db)
	qs := tpchlite.Queries()
	var power float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		times := make([]time.Duration, 0, len(qs))
		for _, q := range qs {
			start := time.Now()
			if _, err := e.Query(q); err != nil {
				b.Fatal(err)
			}
			times = append(times, time.Since(start))
		}
		power = tpchlite.PowerMetric(0.002, times)
	}
	b.ReportMetric(power, "power_metric")
	b.ReportMetric(float64(len(qs)), "queries")
}

// ---------------------------------------------------------------------
// Load test components: generation and maintenance throughput.
// ---------------------------------------------------------------------

func BenchmarkLoadTestGeneration(b *testing.B) {
	var rows int64
	for i := 0; i < b.N; i++ {
		db := datagen.New(0.0005, uint64(i+1)).GenerateAll()
		rows = db.TotalRows()
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkDataMaintenanceRun(b *testing.B) {
	eng := exec.New(datagen.New(benchSF, 12).GenerateAll())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := maintenance.GenerateRefresh(eng.DB(), 12, i+1)
		if err != nil {
			b.Fatal(err)
		}
		stats, err := maintenance.Run(eng, rs)
		if err != nil {
			b.Fatal(err)
		}
		if len(stats.Ops) != 12 {
			b.Fatalf("expected 12 operations, got %d", len(stats.Ops))
		}
	}
}
