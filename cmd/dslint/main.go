// Command dslint is the repo's static-analysis gate. It runs two
// layers and exits nonzero if either finds anything:
//
//   - source analyzers (internal/lint): the statement-level rules
//     (cancelcheck, errcheck, panics, strayio) and the flow-sensitive
//     tier built on the CFG + dataflow framework (lockcheck, goleak,
//     ctxflow, taintdet, nilcheck, errcontract), each one pass over one
//     package — all pure stdlib go/ast + go/types, no external tooling;
//   - the schema-aware template checker (internal/lint/templatecheck):
//     every one of the 99 query templates must substitute, parse, and
//     resolve cleanly against the snowstorm schema catalog.
//
// Usage:
//
//	dslint [-templates=false] [-json] [-timings] [-baseline file] [-budget d] [packages]
//
// -json replaces the human-readable listing with one JSON object
// {"findings": [...]} on stdout — source findings first (sorted by
// position), then template findings in template order — for CI
// artifact upload; with -timings a "timings" member carries the
// per-analyzer wall time.
//
// -baseline enforces the suppression ratchet: the JSON file holds the
// accepted per-rule //lint:ignore counts; a rule whose live count
// exceeds its baseline fails the run, and a count below its baseline
// prints a reminder to lower it. The file is edited by hand.
//
// -timings reports per-analyzer wall time; -budget fails the run when
// their total exceeds the given duration — the CI guard keeping the
// dataflow analyses interactive.
//
// The package argument is accepted for familiarity ("./...") but the
// tool always analyzes the whole module containing the working
// directory. False positives are suppressed in source with
// "//lint:ignore <rule> <reason>"; suppressed counts are reported.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"sort"
	"time"

	"tpcds/internal/lint"
	"tpcds/internal/lint/templatecheck"
	"tpcds/internal/queries"
)

func main() {
	templates := flag.Bool("templates", true, "run the schema-aware template checker")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	baselineFlag := flag.String("baseline", "", "suppression-ratchet file: fail if any rule's //lint:ignore count grows past it")
	timingsFlag := flag.Bool("timings", false, "report per-analyzer wall time")
	budgetFlag := flag.Duration("budget", 0, "fail when the source layer exceeds this total wall time (0 = no limit)")
	flag.Parse()

	_, pkgs, err := lint.Module(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "dslint: %v\n", err)
		os.Exit(2)
	}
	res := lint.Check(pkgs)

	// all accumulates every finding as a lint.Diagnostic so -json emits
	// one uniform object: source findings first (already sorted by
	// position), then template findings as rule "template" in template
	// order. Both orders are deterministic, so the artifact is diffable
	// across CI runs.
	all := res.Diagnostics
	failed := false
	var timings map[string]float64
	fmt.Fprintf(os.Stderr, "dslint: source: %d packages, %d findings, %d suppressed by //lint:ignore\n",
		len(pkgs), len(res.Diagnostics), res.Suppressed)
	var total time.Duration
	for _, d := range res.Timings {
		total += d
	}
	if *timingsFlag {
		timings = map[string]float64{}
		var names []string
		for name, d := range res.Timings {
			names = append(names, name)
			timings[name] = float64(d.Microseconds()) / 1000
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(os.Stderr, "dslint: timing: %-12s %s\n", name, res.Timings[name].Round(time.Millisecond))
		}
		fmt.Fprintf(os.Stderr, "dslint: timing: %-12s %s\n", "total", total.Round(time.Millisecond))
	}
	if *budgetFlag > 0 && total > *budgetFlag {
		fmt.Fprintf(os.Stderr, "dslint: source layer took %s, over the %s budget\n",
			total.Round(time.Millisecond), *budgetFlag)
		failed = true
	}
	if *baselineFlag != "" && !ratchet(*baselineFlag, res.SuppressedByRule) {
		failed = true
	}
	if *templates {
		diags := templatecheck.CheckAll(queries.All())
		for _, d := range diags {
			all = append(all, lint.Diagnostic{
				Pos:     token.Position{Filename: "internal/queries/" + d.File, Line: d.Line, Column: d.Col},
				Rule:    "template",
				Message: d.Message,
			})
		}
		fmt.Fprintf(os.Stderr, "dslint: templates: %d checked, %d findings\n",
			queries.Count, len(diags))
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if all == nil {
			all = []lint.Diagnostic{} // emit "findings": [] rather than null
		}
		out := struct {
			Findings []lint.Diagnostic  `json:"findings"`
			Timings  map[string]float64 `json:"timings,omitempty"` // per-analyzer wall ms
		}{all, timings}
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "dslint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range all {
			fmt.Println(d)
		}
	}
	if len(all) > 0 || failed {
		os.Exit(1)
	}
}

// ratchet implements -baseline: current per-rule suppression counts may
// only move down relative to the committed file. The file is edited by
// hand; a count below its baseline prints a reminder to lower it.
func ratchet(path string, current map[string]int) bool {
	stored := map[string]int{}
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &stored)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dslint: baseline %s: %v\n", path, err)
		return false
	}
	var names []string
	for rule := range stored {
		names = append(names, rule)
	}
	for rule := range current {
		if _, ok := stored[rule]; !ok {
			names = append(names, rule)
		}
	}
	sort.Strings(names)
	ok := true
	for _, rule := range names {
		cur, base := current[rule], stored[rule]
		switch {
		case cur > base:
			fmt.Fprintf(os.Stderr, "dslint: suppression ratchet: rule %s has %d //lint:ignore directives, baseline allows %d — fix the code, or justify the directive and raise the count in %s\n",
				rule, cur, base, path)
			ok = false
		case cur < base:
			fmt.Fprintf(os.Stderr, "dslint: suppression ratchet: rule %s is down to %d (baseline %d) — lower its count in %s\n",
				rule, cur, base, path)
		}
	}
	return ok
}
