// Command dsql runs ad-hoc SQL against a freshly generated TPC-DS
// database — an interactive window into the system under test.
//
// Usage:
//
//	dsql -sf 0.001 -e "SELECT i_category, COUNT(*) c FROM item GROUP BY i_category ORDER BY c DESC"
//	echo "SELECT ..." | dsql -sf 0.001
//	dsql -sf 0.001 -e "EXPLAIN ANALYZE SELECT ..."   # per-operator runtime profile
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"tpcds/internal/datagen"
	"tpcds/internal/exec"
)

func main() {
	sf := flag.Float64("sf", 0.001, "scale factor")
	seed := flag.Uint64("seed", 1, "generation seed")
	query := flag.String("e", "", "query text (default: read stdin)")
	timeout := flag.Duration("timeout", 0, "query deadline (0 = none), e.g. 30s")
	flag.Parse()
	if *sf <= 0 {
		fmt.Fprintln(os.Stderr, "dsql: -sf must be positive")
		os.Exit(2)
	}

	text := *query
	if text == "" {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsql: %v\n", err)
			os.Exit(1)
		}
		text = string(data)
	}
	// EXPLAIN ANALYZE <select>: execute the query with per-operator
	// runtime accounting and print the plan trace plus the profile tree
	// instead of the result rows.
	const analyzePrefix = "explain analyze"
	analyze := false
	if trimmed := strings.TrimSpace(text); len(trimmed) >= len(analyzePrefix) &&
		strings.EqualFold(trimmed[:len(analyzePrefix)], analyzePrefix) {
		analyze = true
		text = trimmed[len(analyzePrefix):]
	}

	loadStart := time.Now()
	eng := exec.New(datagen.New(*sf, *seed).GenerateAll())
	eng.SetProfiling(analyze)
	fmt.Fprintf(os.Stderr, "loaded SF %v in %v\n", *sf, time.Since(loadStart).Round(time.Millisecond))

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	start := time.Now()
	res, tr, err := eng.QueryTracedContext(ctx, text)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsql: %v\n", err)
		os.Exit(1)
	}
	if analyze {
		// EXPLAIN ANALYZE output is the plan trace with the profile tree;
		// the result itself is summarized, not printed.
		fmt.Print(tr.String())
	} else {
		fmt.Print(res.String())
	}
	fmt.Fprintf(os.Stderr, "%d rows in %v\n", len(res.Rows), time.Since(start).Round(time.Microsecond))
}
