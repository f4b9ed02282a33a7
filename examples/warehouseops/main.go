// Warehouseops: the operational pipeline around the benchmark — the
// workflow a database team would actually run. Generates the data set
// to dsdgen-style flat files, loads a fresh warehouse from them (the
// official load-test input path, §5.2), audits the loaded database with
// the TPC validation checks, runs a refresh cycle, audits again, and
// demonstrates the OLAP-amendment reporting features (ROLLUP subtotals
// and EXPLAIN).
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"tpcds/internal/audit"
	"tpcds/internal/datagen"
	"tpcds/internal/exec"
	"tpcds/internal/maintenance"
	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

func main() {
	const sf = 0.001
	dir, err := os.MkdirTemp("", "tpcds-ops-*")
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := os.RemoveAll(dir); err != nil {
			log.Printf("cleanup %s: %v", dir, err)
		}
	}()

	// 1. Extract: generate the data set as flat files (dsdgen).
	start := time.Now()
	src := datagen.New(sf, 9).GenerateAll()
	if err := src.DumpDir(dir); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1. generated %d rows to %s in %v\n",
		src.TotalRows(), dir, time.Since(start).Round(time.Millisecond))

	// 2. Load: a fresh warehouse from the flat files.
	start = time.Now()
	db, err := storage.LoadDir(dir, schema.Tables())
	if err != nil {
		log.Fatal(err)
	}
	eng := exec.New(db)
	fmt.Printf("2. loaded %d rows from flat files in %v\n",
		db.TotalRows(), time.Since(start).Round(time.Millisecond))

	// 3. Audit the load (row counts against the scaling model included).
	rep := audit.Run(db, audit.Options{SF: sf})
	fmt.Printf("3. post-load %s", rep.String())
	if !rep.Passed() {
		log.Fatal("load audit failed")
	}

	// 4. One ETL refresh cycle.
	rs, err := maintenance.GenerateRefresh(db, 9, 1)
	if err != nil {
		log.Fatal(err)
	}
	stats, err := maintenance.Run(eng, rs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("4. refresh: +%d facts, -%d facts, %d SCD revisions in %v\n",
		stats.FactInserts, stats.FactDeletes, stats.DimRevisions,
		stats.Total().Round(time.Millisecond))

	// 5. Audit again: structural invariants must survive maintenance.
	rep = audit.Run(db, audit.Options{})
	fmt.Printf("5. post-refresh %s", rep.String())
	if !rep.Passed() {
		log.Fatal("post-refresh audit failed")
	}

	// 6. Management rollup: channel revenue with subtotals (SQL-99 OLAP
	// amendment) — NULLs mark the rolled-up levels.
	res, err := eng.Query(`
		SELECT i_category, i_class, SUM(ss_ext_sales_price) revenue
		FROM store_sales, item
		WHERE ss_item_sk = i_item_sk
		  AND i_category IN ('Books', 'Music')
		GROUP BY ROLLUP(i_category, i_class)
		ORDER BY i_category, revenue DESC
		LIMIT 12`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("6. rollup report:\n%s", res.String())

	// 7. EXPLAIN a star query.
	explain, err := eng.Explain(`
		SELECT i_brand, SUM(ss_ext_sales_price) r
		FROM store_sales, item, date_dim
		WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk
		  AND d_year = 2001 AND d_moy = 12 AND i_manager_id BETWEEN 1 AND 20
		GROUP BY i_brand ORDER BY r DESC LIMIT 5`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("7. explain:\n%s", explain)
}
