// Command dsbench runs the complete TPC-DS benchmark test (paper §5,
// Figure 11): load test, Query Run 1, Data Maintenance, Query Run 2, and
// prints the QphDS@SF executive summary plus per-phase diagnostics.
//
// Usage:
//
//	dsbench -sf 0.01 -streams 2 -seed 1
//	dsbench -sf 0.01 -queries 1,20,52  # development subset
//	dsbench -sf 0.01 -trace out.json   # Chrome/Perfetto timeline of the run
//	dsbench -sf 0.01 -metrics -pprof ./prof
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"tpcds/internal/audit"
	"tpcds/internal/driver"
	"tpcds/internal/metric"
	"tpcds/internal/obs"
	"tpcds/internal/qgen"
	"tpcds/internal/queries"
)

// main defers to run so the pprof stop and other defers execute before
// the process exit code is decided.
func main() { os.Exit(run()) }

// slowestShown is how many of the slowest queries the report lists.
const slowestShown = 10

// writeDigest emits one sorted line per query — run, stream, template,
// row count, and result checksum — so two runs can be compared with a
// plain diff.
func writeDigest(path string, queries []driver.QueryTiming) error {
	lines := make([]string, 0, len(queries))
	for _, qt := range queries {
		lines = append(lines, fmt.Sprintf("run=%d stream=%d q%d rows=%d sum=%016x",
			qt.Run, qt.Stream, qt.QueryID, qt.Rows, qt.Checksum))
	}
	sort.Strings(lines)
	return os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}

func run() int {
	sf := flag.Float64("sf", 0.01, "scale factor")
	streams := flag.Int("streams", 0, "query streams (0 = Figure 12 minimum)")
	seed := flag.Uint64("seed", 1, "benchmark seed")
	querySubset := flag.String("queries", "", "comma-separated template ids (development only)")
	hw := flag.Float64("hw", 250000, "hardware cost (USD)")
	sw := flag.Float64("sw", 150000, "software cost (USD)")
	maint := flag.Float64("maint", 100000, "3-year maintenance cost (USD)")
	dataDir := flag.String("data", "", "load from dsdgen flat files instead of generating")
	runAudit := flag.Bool("audit", false, "audit the database after the benchmark (TPC audit checks)")
	timeout := flag.Duration("timeout", 0, "per-query deadline (0 = none), e.g. 30s")
	onError := flag.String("on-error", driver.OnErrorAbort,
		"failed-query policy: abort the run or skip to the stream's next query")
	traceOut := flag.String("trace", "", "write a Chrome trace_event timeline of the run to this file")
	metrics := flag.Bool("metrics", false, "collect engine/driver metrics and append the dump to the report")
	pprofDir := flag.String("pprof", "", "write cpu.pprof and heap.pprof into this directory")
	maxConcurrent := flag.Int("max-concurrent", 0, "cap queries in flight across all streams (0 = no cap)")
	digestOut := flag.String("digest", "", "write per-query result checksums to this file (for diffing two runs)")
	feedback := flag.Bool("feedback", false, "profile every query and dump the per-template estimate-vs-actual worst offenders")
	flag.Parse()

	cfg := driver.Config{
		SF: *sf, Streams: *streams, Seed: *seed,
		DataDir: *dataDir, Digest: *digestOut != "",
		QueryTimeout: *timeout, OnError: *onError, MaxConcurrent: *maxConcurrent,
		Price: metric.PriceModel{HardwareUSD: *hw, SoftwareUSD: *sw, MaintenanceUSD: *maint},
	}
	if *traceOut != "" {
		cfg.Tracer = obs.NewTracer()
	}
	// The feedback report needs the q-error counters, so it implies a
	// registry.
	if *metrics || *feedback {
		cfg.Metrics = obs.NewRegistry()
	}
	if *feedback {
		cfg.Profile = true
	}
	if *pprofDir != "" {
		stop, err := obs.StartProfiles(*pprofDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsbench: %v\n", err)
			return 1
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintf(os.Stderr, "dsbench: %v\n", err)
			}
		}()
	}
	if *querySubset != "" {
		for _, part := range strings.Split(*querySubset, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fmt.Fprintf(os.Stderr, "dsbench: bad query id %q\n", part)
				return 2
			}
			cfg.QueryIDs = append(cfg.QueryIDs, id)
		}
	}

	res, err := driver.Run(cfg)
	// Flush the timeline even when the run fails: a trace of a failed
	// run is exactly what the flag is for.
	if cfg.Tracer != nil {
		if werr := obs.WriteFile(*traceOut, cfg.Tracer, obs.WriteChromeTrace); werr != nil {
			fmt.Fprintf(os.Stderr, "dsbench: %v\n", werr)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %d spans to %s\n", cfg.Tracer.Len(), *traceOut)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsbench: %v\n", err)
		return 1
	}
	fmt.Print(res.Report.String())

	if *digestOut != "" {
		if werr := writeDigest(*digestOut, res.Queries); werr != nil {
			fmt.Fprintf(os.Stderr, "dsbench: %v\n", werr)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %d query digests to %s\n", len(res.Queries), *digestOut)
	}

	if *feedback && len(res.Report.Misestimates) > 0 {
		fmt.Printf("\nEstimate-vs-actual feedback (worst operator per template, %d templates):\n",
			len(res.Report.Misestimates))
		fmt.Printf("  tmpl   q-error          est       actual  nodes  operator\n")
		for _, m := range res.Report.Misestimates {
			fmt.Printf("  q%-4d %8.1f %12.0f %12d %6d  %s\n",
				m.ID, m.QError, m.Est, m.Actual, m.Nodes, m.Op)
		}
	}

	if cfg.Metrics != nil {
		fmt.Printf("\nMetrics:\n")
		if err := cfg.Metrics.WriteText(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "dsbench: %v\n", err)
			return 1
		}
	}

	if res.Report.QueryErrors > 0 {
		fmt.Printf("\nFailed queries:\n")
		for _, qt := range res.Queries {
			if qt.Err == "" {
				continue
			}
			kind := "error"
			if qt.TimedOut {
				kind = "timeout"
			}
			fmt.Printf("  run %d stream %d query %-3d %-7s after %8v: %s\n",
				qt.Run, qt.Stream, qt.QueryID, kind, qt.Duration, qt.Err)
		}
	}

	fmt.Printf("\nData maintenance operations:\n")
	for _, op := range res.DMStats.Ops {
		fmt.Printf("  %-26s %8d rows  %v\n", op.Name, op.Rows, op.Duration)
	}

	fmt.Printf("\nSlowest queries:\n")
	for _, qt := range res.SlowestQueries(slowestShown) {
		name, class := "(unknown)", "-"
		if t, err := queries.ByID(qt.QueryID); err == nil {
			name, class = t.Name, qgen.ClassOf(t).String()
		}
		fmt.Printf("  run %d stream %d query %-3d (%-30s class %-9s) %8v  %6d rows\n",
			qt.Run, qt.Stream, qt.QueryID, name, class, qt.Duration, qt.Rows)
	}

	if *runAudit {
		// Row counts shifted during data maintenance, so the SF check is
		// off; the structural invariants must hold.
		rep := audit.Run(res.Engine.DB(), audit.Options{})
		fmt.Printf("\n%s", rep.String())
		if !rep.Passed() {
			return 1
		}
	}
	return 0
}
