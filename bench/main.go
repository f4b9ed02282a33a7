// Command bench is the repository's benchmark: four workloads over the
// TPC-DS kit and the engine under it, each reporting the end-to-end
// quantities a user of the kit sees and — on a separate traced run —
// where every layer spent its time. BENCHMARK.json at the repository
// root declares the workloads and metrics; README.md in this directory
// is the glossary.
//
//	go run ./bench -workload power_serial -seed 1            # end to end
//	go run ./bench -workload power_serial -seed 1 -trace 1   # per layer
//	go run ./bench                                           # all four
//	go run ./bench -selfcheck                                # all four, twice
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

// maxProcs pins the harness to two cores: two streams at engine
// parallelism 1 are the most it ever runs at once.
const maxProcs = 2

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 20

// scratchRoot is the directory build outputs and scratch files go to,
// inside the checkout the harness is run from.
const scratchRoot = ".bench_build"

func main() {
	code, err := realMain(context.Background(), os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	}
	os.Exit(code)
}

// realMain returns the exit code: 2 for a bad command line, 1 for a run
// that could not complete or had failed operations.
func realMain(ctx context.Context, args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var cfg config
	var trace int
	var selfcheck bool
	fs.StringVar(&cfg.workload, "workload", "all", "workload to run: power_serial, full_test_2s, gen_load, refresh_mixed, or all")
	fs.Uint64Var(&cfg.seed, "seed", goldenSeed, "seed of data generation and query substitution")
	fs.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "length of the timed region in seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans around every call into a layer and reports the per-layer metrics")
	fs.Float64Var(&cfg.sf, "sf", 0, "scale factor override (the committed digests only cover the default)")
	fs.StringVar(&cfg.dir, "out", "", "directory for flat files and spans.jsonl (default: a temporary directory under "+scratchRoot+", removed at exit)")
	fs.BoolVar(&cfg.updateGolden, "update-golden", false, "rewrite bench/golden/<workload>.digest from this run (run from the repository root)")
	fs.BoolVar(&selfcheck, "selfcheck", false, "run the workload set twice and compare the medians with the bounds")
	if err := fs.Parse(args); err != nil {
		return 2, nil // the flag set has printed the error and the usage
	}
	if fs.NArg() > 0 || trace < 0 || trace > 1 || cfg.seconds < 0 || cfg.sf < 0 {
		return 2, fmt.Errorf("bad arguments; see -help")
	}
	cfg.trace = trace == 1
	runtime.GOMAXPROCS(maxProcs)

	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if workloadByName(cfg.workload) == nil {
		return 2, fmt.Errorf("unknown workload %q", cfg.workload)
	}

	var err error
	switch {
	case selfcheck:
		err = runSelfcheck(ctx, names, args, stdout)
	case len(names) > 1:
		_, err = runChildren(ctx, names, args, stdout)
	default:
		err = runOne(ctx, cfg, stdout)
	}
	if err != nil {
		return 1, err
	}
	return 0, nil
}

// errFailed reports a run that completed but had failed operations.
var errFailed = fmt.Errorf("operations failed")

// runOne measures one workload in this process and prints its report;
// the last line is the result object of the benchmark contract.
func runOne(ctx context.Context, cfg config, stdout io.Writer) (err error) {
	w := workloadByName(cfg.workload)
	if cfg.dir == "" {
		if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
			return err
		}
		if cfg.dir, err = os.MkdirTemp(scratchRoot, "run-"); err != nil {
			return err
		}
		defer func() {
			if rerr := os.RemoveAll(cfg.dir); err == nil {
				err = rerr
			}
		}()
	} else if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}

	r, err := newRun(ctx, cfg, w)
	if err != nil {
		return err
	}
	if err := r.measure(); err != nil {
		return err
	}
	values, err := r.summarize()
	if err != nil {
		return err
	}
	if r.tr != nil {
		if err := r.tr.writeJSONL(r.scratch("spans.jsonl")); err != nil {
			return err
		}
	}
	if cfg.updateGolden {
		if err := r.check.writeGolden(w.name); err != nil {
			return err
		}
	}
	if err := r.report(stdout, values); err != nil {
		return err
	}
	if r.check.failed > 0 {
		return errFailed
	}
	return nil
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the host, every metric by name with unit, sample count
// and bound, the verification outcome, and the result object.
func (r *run) report(out io.Writer, values map[string]value) error {
	w := &strings.Builder{}
	mode := "end to end, tracing off"
	if r.tr != nil {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s (%s): %s\n", r.w.name, mode, r.w.why)
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d go=%s commit=%s seed=%d sf=%g seconds=%g repetitions=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), r.cfg.seed, r.sf, r.cfg.seconds, r.reps)

	declared := endToEnd
	if r.tr != nil {
		declared = perLayer
	}
	res := result{Correct: r.check.failed == 0, Attempted: r.check.attempted, Failed: r.check.failed,
		Metrics: map[string]metricValue{}}
	line := func(m metricDef) {
		v := values[m.Name]
		bound := ""
		if m.Bound > 0 {
			bound = fmt.Sprintf("bound=%.0f%%", m.Bound*100)
		}
		spread := ""
		if v.q3 > v.q1 {
			spread = fmt.Sprintf("quartiles %.4g .. %.4g", v.q1, v.q3)
		}
		fmt.Fprintf(w, "  %-36s %16.4f %-6s n=%-5d %-6s %-9s %s\n", m.Name, v.v, m.Unit, v.n, m.Better, bound, spread)
	}
	for _, m := range declared {
		v := values[m.Name]
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return fmt.Errorf("metric %s is not finite", m.Name)
		}
		line(m)
		res.Metrics[m.Name] = metricValue{v.v, m.Unit}
	}
	if r.tr == nil {
		for _, m := range phaseMetrics {
			if _, ok := values[m.Name]; ok {
				line(m)
			}
		}
		n := len(r.queryMs)
		if p := supportedTail(n); p < r.w.tail {
			fmt.Fprintf(w, "  note: query_tail_ms is p%g of %d samples; the highest percentile with 10 samples beyond it is p%g\n",
				r.w.tail*100, n, p*100)
		}
	} else {
		fmt.Fprint(w, r.layerTable())
		fmt.Fprintf(w, "spans: %d in %s\n", len(r.tr.spans), r.scratch("spans.jsonl"))
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed (fail_ratio %.6f)\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, f := range r.check.failures {
		fmt.Fprintf(w, "  failed: %s\n", f)
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s%s\n", w.String(), last)
	return err
}

// commit returns the revision the binary was built from, when the build
// recorded one (go run outside a git checkout does not).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runChildren runs each workload in a process of its own, so that
// peak_rss_mb belongs to one workload, passes their reports through and
// returns their result objects.
func runChildren(ctx context.Context, names, args []string, stdout io.Writer) (map[string]result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := map[string]result{}
	failed := false
	for _, name := range names {
		cmd := exec.CommandContext(ctx, self, append(childArgs(args), "-workload", name)...)
		cmd.Stderr = os.Stderr
		data, err := cmd.Output()
		if _, werr := stdout.Write(data); werr != nil {
			return nil, werr
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			return nil, fmt.Errorf("workload %s printed no result: %v (%v)", name, jerr, err)
		}
		out[name] = res
		failed = failed || err != nil || !res.Correct
	}
	if failed {
		return out, errFailed
	}
	return out, nil
}

// childArgs drops the flags the parent consumed itself.
func childArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		name := strings.TrimLeft(strings.SplitN(args[i], "=", 2)[0], "-")
		switch name {
		case "selfcheck":
			continue
		case "workload":
			if !strings.Contains(args[i], "=") {
				i++
			}
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// runSelfcheck runs every workload of the set twice, back to back — the
// host's speed drifts by more than a bound over minutes, so the two runs
// of a pair sit next to each other — and prints, per end-to-end metric
// and workload, both values, their relative difference in the worsening
// direction and the bound.
func runSelfcheck(ctx context.Context, names, args []string, stdout io.Writer) error {
	var sets [2]map[string]result
	for i := range sets {
		sets[i] = map[string]result{}
	}
	for _, name := range names {
		for i := range sets {
			res, err := runChildren(ctx, []string{name}, args, io.Discard)
			if err != nil {
				return fmt.Errorf("selfcheck run %d of %s: %w", i+1, name, err)
			}
			sets[i][name] = res[name]
		}
	}
	w := &strings.Builder{}
	fmt.Fprintf(w, "selfcheck: nproc=%d go=%s\n", runtime.NumCPU(), runtime.Version())
	fmt.Fprintf(w, "%-14s %-14s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "worse", "bound")
	over := 0
	for _, name := range names {
		for _, m := range endToEnd {
			a, b := sets[0][name].Metrics[m.Name].Value, sets[1][name].Metrics[m.Name].Value
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = -worse
			}
			flag := ""
			if worse > m.Bound {
				flag = "  OVER"
				over++
			}
			fmt.Fprintf(w, "%-14s %-14s %14.4f %14.4f %+7.1f%% %5.0f%%%s\n", name, m.Name, a, b, worse*100, m.Bound*100, flag)
		}
	}
	if _, err := io.WriteString(stdout, w.String()); err != nil {
		return err
	}
	if over > 0 {
		return fmt.Errorf("selfcheck: %d metrics worsened by more than their bound between two runs of the same commit", over)
	}
	return nil
}
