// Command dslint is the repo's static-analysis gate. It runs two
// layers and exits nonzero if either finds anything:
//
//   - source analyzers (internal/lint): the statement-level rules
//     (determinism, cancelcheck, errcheck, panics, strayio), the
//     flow-sensitive tier built on the CFG + dataflow framework
//     (lockcheck, goleak, ctxflow, taintdet), and the rules that also
//     read interprocedural summaries (pubfreeze, nilcheck, errcontract)
//     — all pure stdlib go/ast + go/types, no external tooling;
//   - the schema-aware template checker (internal/lint/templatecheck):
//     every one of the 99 query templates must substitute, parse, and
//     resolve cleanly against the snowstorm schema catalog.
//
// Usage:
//
//	dslint [-source=false] [-templates=false] [-rules lockcheck,goleak] [-json] [packages]
//	dslint -summary '(Engine).costPlan'
//
// -rules restricts the source layer to a comma-separated subset of
// analyzers (see -rules=help for the list); unknown names are a usage
// error. -json replaces the human-readable listing with one JSON
// object {"findings": [...]} on stdout — source findings first (sorted
// by position), then template findings in template order — for CI
// artifact upload; with -timings a "timings" member carries the
// per-analyzer wall time.
//
// -summary prints the computed interprocedural summary (mutation, taint
// transfer, error contract) of one function and exits — the triage tool for
// pubfreeze/taintdet/errcontract findings. The name is matched as an exact
// display name ("exec.(Engine).costPlan") or any unique suffix.
//
// -baseline enforces the suppression ratchet: the JSON file holds the
// accepted per-rule //lint:ignore counts; a rule whose live count
// exceeds its baseline fails the run, and counts below baseline print
// a ratchet-down reminder. -write-baseline rewrites the file from the
// current counts (the only way the numbers move).
//
// -timings reports per-analyzer wall time; -budget fails the run when
// the source layer exceeds the given total duration — the CI guard
// keeping the fixpoint analyses interactive.
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
	"strings"
	"time"

	"tpcds/internal/lint"
	"tpcds/internal/lint/templatecheck"
	"tpcds/internal/queries"
)

func main() {
	source := flag.Bool("source", true, "run the source analyzers")
	templates := flag.Bool("templates", true, "run the schema-aware template checker")
	rulesFlag := flag.String("rules", "", "comma-separated subset of source analyzers to run (default: all; 'help' lists them)")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	summaryFlag := flag.String("summary", "", "print the interprocedural summary of the named function and exit")
	baselineFlag := flag.String("baseline", "", "suppression-ratchet file: fail if any rule's //lint:ignore count grows past it")
	writeBaseline := flag.Bool("write-baseline", false, "rewrite the -baseline file from the current suppression counts")
	timingsFlag := flag.Bool("timings", false, "report per-analyzer wall time")
	budgetFlag := flag.Duration("budget", 0, "fail when the source layer exceeds this total wall time (0 = no limit)")
	flag.Parse()

	if *rulesFlag == "help" {
		fmt.Fprintf(os.Stderr, "dslint: source rules: %s\n", strings.Join(lint.Rules(), ", "))
		os.Exit(0)
	}

	if *summaryFlag != "" {
		_, pkgs, err := lint.Module(".")
		if err != nil {
			fmt.Fprintf(os.Stderr, "dslint: %v\n", err)
			os.Exit(2)
		}
		pr := lint.BuildProgram(pkgs)
		node, candidates := pr.FindNode(*summaryFlag)
		if node == nil {
			if len(candidates) > 0 {
				fmt.Fprintf(os.Stderr, "dslint: %q is ambiguous: %s\n", *summaryFlag, strings.Join(candidates, ", "))
			} else {
				fmt.Fprintf(os.Stderr, "dslint: no function matches %q\n", *summaryFlag)
			}
			os.Exit(2)
		}
		fmt.Printf("%s: %s\n", node.Name, node.Summary())
		var callees []string
		for _, c := range node.Calls {
			callees = append(callees, c.Name)
		}
		if len(callees) > 0 {
			fmt.Printf("  calls: %s\n", strings.Join(callees, ", "))
		}
		if node.CallsUnknown {
			fmt.Println("  calls unresolved functions (interface methods, function values, or stdlib)")
		}
		return
	}
	var rules []string
	if *rulesFlag != "" {
		for _, r := range strings.Split(*rulesFlag, ",") {
			r = strings.TrimSpace(r)
			if r == "" {
				continue
			}
			if !lint.KnownRule(r) {
				fmt.Fprintf(os.Stderr, "dslint: unknown rule %q (known: %s)\n", r, strings.Join(lint.Rules(), ", "))
				os.Exit(2)
			}
			rules = append(rules, r)
		}
	}

	// all accumulates every finding as a lint.Diagnostic so -json emits
	// one uniform object: source findings first (already sorted by
	// position), then template findings as rule "template" in template
	// order. Both orders are deterministic, so the artifact is diffable
	// across CI runs.
	var all []lint.Diagnostic
	failed := false
	var timings map[string]float64
	if *source {
		_, pkgs, err := lint.Module(".")
		if err != nil {
			fmt.Fprintf(os.Stderr, "dslint: %v\n", err)
			os.Exit(2)
		}
		res := lint.CheckRules(pkgs, rules)
		all = append(all, res.Diagnostics...)
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
		if *baselineFlag != "" {
			if !ratchet(*baselineFlag, *writeBaseline, rules, res.SuppressedByRule) {
				failed = true
			}
		}
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
// only move down relative to the committed file. Rules that did not run
// are left out of the comparison (their count is vacuously zero). With
// write set, the file is rewritten from the current counts, keeping the
// stored value for rules that did not run.
func ratchet(path string, write bool, rules []string, current map[string]int) bool {
	stored := map[string]int{}
	data, err := os.ReadFile(path)
	if err == nil {
		if err := json.Unmarshal(data, &stored); err != nil {
			fmt.Fprintf(os.Stderr, "dslint: baseline %s: %v\n", path, err)
			return false
		}
	} else if !write {
		fmt.Fprintf(os.Stderr, "dslint: baseline %s: %v (run -write-baseline to create it)\n", path, err)
		return false
	}
	ran := map[string]bool{}
	if len(rules) == 0 {
		for _, r := range lint.Rules() {
			ran[r] = true
		}
	} else {
		for _, r := range rules {
			ran[r] = true
		}
	}
	if write {
		next := map[string]int{}
		for rule, n := range stored {
			if !ran[rule] && n > 0 {
				next[rule] = n
			}
		}
		for rule, n := range current {
			if n > 0 {
				next[rule] = n
			}
		}
		out, err := json.MarshalIndent(next, "", "\t")
		if err == nil {
			err = os.WriteFile(path, append(out, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dslint: writing baseline %s: %v\n", path, err)
			return false
		}
		fmt.Fprintf(os.Stderr, "dslint: baseline %s rewritten\n", path)
		return true
	}
	ok := true
	var names []string
	for rule := range ran {
		if current[rule] > 0 || stored[rule] > 0 {
			names = append(names, rule)
		}
	}
	sort.Strings(names)
	for _, rule := range names {
		cur, base := current[rule], stored[rule]
		switch {
		case cur > base:
			fmt.Fprintf(os.Stderr, "dslint: suppression ratchet: rule %s has %d //lint:ignore directives, baseline allows %d — fix the code or justify and -write-baseline\n",
				rule, cur, base)
			ok = false
		case cur < base:
			fmt.Fprintf(os.Stderr, "dslint: suppression ratchet: rule %s is down to %d (baseline %d) — ratchet down with -write-baseline\n",
				rule, cur, base)
		}
	}
	return ok
}
