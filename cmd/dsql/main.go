// Command dsql runs ad-hoc SQL against a freshly generated TPC-DS
// database — an interactive window into the system under test.
//
// Usage:
//
//	dsql -sf 0.001 -e "SELECT i_category, COUNT(*) c FROM item GROUP BY i_category ORDER BY c DESC"
//	echo "SELECT ..." | dsql -sf 0.001
//	dsql -sf 0.001 -e "EXPLAIN ANALYZE SELECT ..."   # per-operator runtime profile
//	dsql -sf 0.001 -e "..." -trace out.json -metrics
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
	"tpcds/internal/obs"
	"tpcds/internal/plan"
)

// main defers to run so the pprof stop and trace flush execute before
// the process exit code is decided.
func main() { os.Exit(run()) }

func run() int {
	sf := flag.Float64("sf", 0.001, "scale factor")
	seed := flag.Uint64("seed", 1, "generation seed")
	query := flag.String("e", "", "query text (default: read stdin)")
	mode := flag.String("mode", "auto", "plan mode: auto|hash|star")
	explain := flag.Bool("explain", false, "print the optimizer decision after execution")
	parallelism := flag.Int("parallelism", 0, "morsel workers (0 = all cores, 1 = serial)")
	planner := flag.String("planner", "cost", "join planner: cost (statistics + plan cache) or greedy (fixed heuristic baseline)")
	timeout := flag.Duration("timeout", 0, "query deadline (0 = none), e.g. 30s")
	traceOut := flag.String("trace", "", "write a Chrome trace_event timeline of the query to this file")
	metrics := flag.Bool("metrics", false, "print the engine metrics dump after the query")
	pprofDir := flag.String("pprof", "", "write cpu.pprof and heap.pprof into this directory")
	flag.Parse()

	var pm plan.Mode
	switch *mode {
	case "auto":
		pm = plan.Auto
	case "hash":
		pm = plan.ForceHashJoin
	case "star":
		pm = plan.ForceStar
	default:
		fmt.Fprintf(os.Stderr, "dsql: unknown mode %q\n", *mode)
		return 2
	}
	pk, err := plan.ParsePlanner(*planner)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsql: %v\n", err)
		return 2
	}

	text := *query
	if text == "" {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsql: %v\n", err)
			return 1
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

	if *pprofDir != "" {
		stop, err := obs.StartProfiles(*pprofDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsql: %v\n", err)
			return 1
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintf(os.Stderr, "dsql: %v\n", err)
			}
		}()
	}
	var tracer *obs.Tracer
	var root *obs.Span
	if *traceOut != "" {
		tracer = obs.NewTracer()
		root = tracer.Root("dsql", "driver")
	}
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}

	loadStart := time.Now()
	loadSp := root.Child("load")
	gen := datagen.New(*sf, *seed)
	gen.SetObservability(loadSp, reg)
	eng := exec.New(gen.GenerateAll())
	loadSp.End()
	eng.SetMode(pm)
	eng.SetPlanner(pk)
	eng.SetParallelism(*parallelism)
	eng.SetMetrics(reg)
	eng.SetProfiling(analyze)
	fmt.Fprintf(os.Stderr, "loaded SF %v in %v\n", *sf, time.Since(loadStart).Round(time.Millisecond))

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	qsp := root.Child("query")
	ctx = obs.ContextWithSpan(ctx, qsp)
	start := time.Now()
	res, tr, err := eng.QueryTracedContext(ctx, text)
	qsp.End()
	root.End()
	if tracer != nil {
		if werr := obs.WriteFile(*traceOut, tracer, obs.WriteChromeTrace); werr != nil {
			fmt.Fprintf(os.Stderr, "dsql: %v\n", werr)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %d spans to %s\n", tracer.Len(), *traceOut)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsql: %v\n", err)
		return 1
	}
	if analyze {
		// EXPLAIN ANALYZE output is the plan trace with the profile tree;
		// the result itself is summarized, not printed.
		fmt.Print(tr.String())
	} else {
		fmt.Print(res.String())
	}
	fmt.Fprintf(os.Stderr, "%d rows in %v\n", len(res.Rows), time.Since(start).Round(time.Microsecond))
	if *explain && !analyze {
		fmt.Fprint(os.Stderr, tr.String())
	}
	if reg != nil {
		if err := reg.WriteText(os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "dsql: %v\n", err)
			return 1
		}
	}
	return 0
}
