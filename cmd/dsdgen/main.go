// Command dsdgen generates the TPC-DS data set as pipe-separated flat
// files, one per table — the equivalent of the official kit's dsdgen
// (paper §3). The emitted files are the load-test input and the staging
// format of the ETL workload.
//
// Usage:
//
//	dsdgen -sf 0.01 -seed 1 -dir ./data [-tables store_sales,item]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tpcds/internal/datagen"
	"tpcds/internal/scaling"
	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

func main() {
	sf := flag.Float64("sf", 1, "scale factor (raw data GB; official values: 100,300,...,100000)")
	seed := flag.Uint64("seed", 1, "generation seed")
	dir := flag.String("dir", ".", "output directory")
	tables := flag.String("tables", "", "comma-separated table subset (default: all 24)")
	flag.Parse()

	if *sf <= 0 {
		fmt.Fprintln(os.Stderr, "dsdgen: -sf must be positive")
		os.Exit(2)
	}
	if !scaling.IsOfficial(*sf) {
		fmt.Fprintf(os.Stderr, "dsdgen: note: SF %v is a development scale factor (official: %v)\n",
			*sf, scaling.OfficialScaleFactors)
	}
	want := map[string]bool{}
	if *tables != "" {
		known := schema.ByName()
		var unknown []string
		for _, t := range strings.Split(*tables, ",") {
			switch t = strings.TrimSpace(t); {
			case t == "":
			case known[t] == nil:
				unknown = append(unknown, t)
			default:
				want[t] = true
			}
		}
		if len(unknown) > 0 {
			fmt.Fprintf(os.Stderr, "dsdgen: unknown table(s) in -tables: %s\n", strings.Join(unknown, ", "))
			os.Exit(2)
		}
	}

	start := time.Now()
	db := datagen.New(*sf, *seed).GenerateAll()
	out := db
	if len(want) > 0 {
		out = storage.NewDB()
		for name := range want {
			out.Put(db.Table(name))
		}
	}
	if err := out.DumpDir(*dir); err != nil {
		fmt.Fprintf(os.Stderr, "dsdgen: %v\n", err)
		os.Exit(1)
	}
	var totalRows int64
	for _, name := range out.Names() {
		n := out.Table(name).NumRows()
		fmt.Printf("%-24s %12d rows -> %s\n", name, n, filepath.Join(*dir, name+".dat"))
		totalRows += int64(n)
	}
	fmt.Printf("generated %d rows at SF %v in %v\n", totalRows, *sf, time.Since(start).Round(time.Millisecond))
}
