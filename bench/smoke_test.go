package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"tpcds/internal/datagen"
	"tpcds/internal/driver"
	"tpcds/internal/qgen"
	"tpcds/internal/queries"
)

// smokeSF keeps the smoke runs short; the committed digests do not
// apply to it, so the runs check that repeated queries agree.
const smokeSF = 0.002

// ownLayers are the per-layer metrics each workload's traced run must
// measure itself: zero there means a probe or a span went missing.
var ownLayers = map[string][]string{
	"power_serial": {"sql.parse_us", "qgen.instantiate_us", "plan.cache_hit_ratio", "plan.source_cache", "exec.run_ms",
		"exec.alloc_mb", "exec.rows_scanned", "exec.op.scan_ms", "exec.op.probe_ms", "exec.render_ms",
		"exec.par2_speedup", "obs.overhead_ratio", "bench.trace_overhead_ratio", "bench.self_ms"},
	"full_test_2s": {"driver.stream_overhead_ratio", "driver.concurrency_slowdown", "driver.dm_ms",
		"maintenance.delete_store_ms", "maintenance.rows_per_s"},
	"gen_load": {"datagen.gen_ms", "datagen.parallel_speedup", "storage.write_ms", "storage.read_ms",
		"storage.heap_per_raw_byte", "index.hash_build_ns_per_row", "index.bitmap_build_ns_per_row",
		"index.sorted_build_ns_per_row", "index.hash_lookup_ns", "index.warm_ms"},
	"refresh_mixed": {"phase.dm_s", "maintenance.gen_refresh_ms", "maintenance.rows_per_s",
		"maintenance.refresh_inventory_ms", "plan.source_dp", "exec.run_ms"},
}

// phaseOf lists the phase metrics each workload reports.
var phaseOf = map[string][]string{
	"power_serial":  nil,
	"full_test_2s":  {"qphds", "t_load_s", "t_qr1_s", "t_qr2_s"},
	"gen_load":      {"gen_s", "load_s"},
	"refresh_mixed": {"dm_s"},
}

// Every workload runs end to end with one set-up and one repetition:
// every end-to-end metric is present, finite and non-zero, the phase
// metrics of the workload are there, nothing fails, and the report ends
// in the contract's result object. The probes of the two workloads whose
// traced run TestSmokeTraced leaves out run on the same state.
func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{workload: w.name, seed: goldenSeed, sf: smokeSF, dir: t.TempDir(), setups: 1}
			r, err := newRun(context.Background(), cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.measure(); err != nil {
				t.Fatal(err)
			}
			values, err := r.summarize()
			if err != nil {
				t.Fatal(err)
			}
			var report bytes.Buffer
			if err := r.report(&report, values); err != nil {
				t.Fatal(err)
			}
			checkResult(t, lastLine(t, report.String()), endToEnd, true)
			for _, name := range phaseOf[w.name] {
				if v, ok := values[name]; !ok || v.v <= 0 {
					t.Errorf("phase metric %s = %v", name, v.v)
				}
			}
			for _, want := range []string{"nproc=", "go=go", "commit=", "seed=1", "sf=0.002", "GOMAXPROCS="} {
				if !strings.Contains(report.String(), want) {
					t.Errorf("report does not record %q:\n%s", want, report.String())
				}
			}
			if w.name == "full_test_2s" || w.name == "gen_load" {
				if err := w.probe(r); err != nil {
					t.Fatal(err)
				}
				for _, name := range ownLayers[w.name] {
					if median(r.samples[name]) == 0 {
						t.Errorf("%s is zero on %s", name, w.name)
					}
				}
			}
		})
	}
}

// The traced run, through the command line: it emits every per-layer
// metric, the workload's own layers are non-zero, and the report shows
// where the spans went.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads traced")
	}
	for _, name := range []string{"power_serial", "refresh_mixed"} {
		t.Run(name, func(t *testing.T) {
			var stdout bytes.Buffer
			args := []string{"--workload", name, "--seed", "7", "--seconds", "0", "--trace", "1", "-sf", "0.002", "-out", t.TempDir()}
			if code, err := realMain(context.Background(), args, &stdout); code != 0 {
				t.Fatalf("bench %v: exit code %d: %v\n%s", args, code, err, stdout.String())
			}
			res := lastLine(t, stdout.String())
			checkResult(t, res, perLayer, false)
			for _, m := range ownLayers[name] {
				if res.Metrics[m].Value == 0 {
					t.Errorf("%s is zero on %s", m, name)
				}
			}
			if !strings.Contains(stdout.String(), "self time by layer") || !strings.Contains(stdout.String(), "spans.jsonl") {
				t.Errorf("traced report lacks the layer table or the span file:\n%s", stdout.String())
			}
		})
	}
}

// lastLine decodes the result object a report ends in.
func lastLine(t *testing.T, report string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(report), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, report)
	}
	return res
}

// checkResult asserts the run emitted exactly the declared metrics, all
// finite, and that no operation failed. Only a difference of two
// measurements (the *_extra_ms metrics) may be negative.
func checkResult(t *testing.T, res result, declared []metricDef, nonZero bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(declared) {
		t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(declared))
	}
	for _, m := range declared {
		v, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s is missing", m.Name)
		case v.Unit != m.Unit:
			t.Errorf("metric %s has unit %q, declared %q", m.Name, v.Unit, m.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s = %v", m.Name, v.Value)
		case v.Value < 0 && !strings.HasSuffix(m.Name, "_extra_ms"):
			t.Errorf("metric %s = %v", m.Name, v.Value)
		case nonZero && v.Value == 0:
			t.Errorf("end-to-end metric %s is zero", m.Name)
		}
	}
}

// The harness's own digest is the driver's: the serial workloads' golden
// lines and dsbench -digest describe results the same way.
func TestChecksumMatchesDriver(t *testing.T) {
	ids := []int{20, 52, 71}
	res, err := driver.Run(driver.Config{SF: 0.001, Seed: 3, Streams: 1, Parallelism: 1, Digest: true, QueryIDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{}
	for _, qt := range res.Queries {
		if qt.Run == 1 {
			want[qt.QueryID] = queryOutcome(qt.Rows, qt.Checksum)
		}
	}
	eng := newEngine(datagen.New(0.001, 3).GenerateAll())
	for _, id := range ids {
		tpl, err := queries.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		text, err := qgen.Instantiate(tpl, qgen.StreamSeed(3, 0, id))
		if err != nil {
			t.Fatal(err)
		}
		r, err := eng.Query(text)
		if err != nil {
			t.Fatal(err)
		}
		if got := queryOutcome(len(r.Rows), resultChecksum(r)); got != want[id] {
			t.Errorf("q%d: harness digest %s, driver digest %s", id, got, want[id])
		}
	}
}

// Flags the driver passes, in the form it passes them.
func TestDriverFlagForm(t *testing.T) {
	var stdout bytes.Buffer
	code, err := realMain(context.Background(), []string{"--workload", "nosuch", "--seed", "7", "--seconds", "1", "--trace", "0"}, &stdout)
	if code != 2 || err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("exit code %d, error %v", code, err)
	}
	if got := fmt.Sprint(childArgs([]string{"-selfcheck", "--workload", "all", "-seed=7", "-workload=x", "-seconds", "3"})); got != "[-seed=7 -seconds 3]" {
		t.Errorf("childArgs = %s", got)
	}
}
