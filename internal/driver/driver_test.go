package driver

import (
	"testing"
	"time"

	"tpcds/internal/datagen"
	"tpcds/internal/metric"
	"tpcds/internal/storage"
)

// freshDB generates the database a config would load.
func freshDB(cfg Config) *storage.DB {
	return datagen.New(cfg.SF, cfg.Seed).GenerateAll()
}

// tinyCfg runs a real end-to-end benchmark at development scale with a
// query subset to keep the test fast while exercising every phase.
func tinyCfg() Config {
	return Config{
		SF:       0.0005,
		Streams:  2,
		Seed:     42,
		QueryIDs: []int{1, 2, 9, 16, 20, 21, 22, 23, 27, 46, 52, 66},
		Price:    metric.PriceModel{HardwareUSD: 100000, SoftwareUSD: 50000, MaintenanceUSD: 30000},
	}
}

func TestFullBenchmarkRun(t *testing.T) {
	res, err := Run(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Figure 11 phases all measured.
	tm := res.Report.Timings
	if tm.Load <= 0 || tm.QR1 <= 0 || tm.DM <= 0 || tm.QR2 <= 0 {
		t.Errorf("phase timings missing: %+v", tm)
	}
	// Every stream ran every query in both runs.
	want := 2 /*runs*/ * 2 /*streams*/ * 12 /*queries*/
	if len(res.Queries) != want {
		t.Errorf("query executions = %d, want %d", len(res.Queries), want)
	}
	counts := map[int]int{}
	for _, qt := range res.Queries {
		counts[qt.QueryID]++
		if qt.Run != 1 && qt.Run != 2 {
			t.Errorf("query timing with run %d", qt.Run)
		}
	}
	for _, id := range tinyCfg().QueryIDs {
		if counts[id] != 4 {
			t.Errorf("query %d executed %d times, want 4", id, counts[id])
		}
	}
	if res.Report.QphDS <= 0 {
		t.Error("QphDS not computed")
	}
	if res.Report.Official {
		t.Error("development subset run must not be publishable")
	}
	if !res.Report.Subset {
		t.Error("subset run not flagged in the report")
	}
	if res.Report.PerStream != len(tinyCfg().QueryIDs) {
		t.Errorf("report per-stream query count = %d, want %d",
			res.Report.PerStream, len(tinyCfg().QueryIDs))
	}
	if res.DMStats.FactInserts == 0 {
		t.Error("data maintenance did not insert facts")
	}
	if res.Report.PerQphDS <= 0 {
		t.Error("price-performance not computed")
	}
}

func TestDeterministicQueryOrderPerStream(t *testing.T) {
	cfg := tinyCfg()
	resA, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Row counts per (run, stream, query) must match exactly across
	// identical configurations — full repeatability (§3.2).
	key := func(qt QueryTiming) [3]int { return [3]int{qt.Run, qt.Stream, qt.QueryID} }
	rowsA := map[[3]int]int{}
	for _, qt := range resA.Queries {
		rowsA[key(qt)] = qt.Rows
	}
	for _, qt := range resB.Queries {
		if rowsA[key(qt)] != qt.Rows {
			t.Fatalf("run/stream/query %v rows differ: %d vs %d",
				key(qt), rowsA[key(qt)], qt.Rows)
		}
	}
}

func TestStreamsDefaultToMinimum(t *testing.T) {
	cfg := tinyCfg()
	cfg.Streams = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Streams != metric.MinStreams(cfg.SF) {
		t.Errorf("streams defaulted to %d, want %d", res.Config.Streams, metric.MinStreams(cfg.SF))
	}
}

func TestBadConfig(t *testing.T) {
	if _, err := Run(Config{SF: 0}); err == nil {
		t.Error("zero SF should fail")
	}
	if _, err := Run(Config{SF: 0.001, Streams: -1}); err == nil {
		t.Error("negative streams should fail")
	}
	if _, err := Run(Config{SF: 0.001, QueryIDs: []int{1234}}); err == nil {
		t.Error("unknown query id should fail")
	}
	if _, err := Run(Config{SF: 0.001, QueryTimeout: -time.Second}); err == nil {
		t.Error("negative query timeout should fail")
	}
}

func TestSlowestQueriesAndDelta(t *testing.T) {
	res, err := Run(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	slow := res.SlowestQueries(5)
	if len(slow) != 5 {
		t.Fatalf("SlowestQueries returned %d", len(slow))
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].Duration > slow[i-1].Duration {
			t.Error("SlowestQueries not sorted")
		}
	}
	delta := res.QueryRunDelta()
	if len(delta) == 0 {
		t.Error("QueryRunDelta empty")
	}
	_ = time.Now()
}

func TestLoadFromFlatFiles(t *testing.T) {
	// Dump a generated database, then run the benchmark loading from the
	// files: the result must match a generated run query-for-query.
	dir := t.TempDir()
	cfg := tinyCfg()
	cfg.Streams = 1
	gen, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.Engine.DB().DumpDir(dir); err != nil {
		t.Fatal(err)
	}
	// Note: gen's database has already been through one maintenance run,
	// so load a FRESH dump instead for comparability.
	fresh := tinyCfg()
	fresh.Streams = 1
	freshDir := t.TempDir()
	if err := dumpFreshDatabase(fresh, freshDir); err != nil {
		t.Fatal(err)
	}
	loaded := fresh
	loaded.DataDir = freshDir
	resLoaded, err := Run(loaded)
	if err != nil {
		t.Fatal(err)
	}
	resGen, err := Run(fresh)
	if err != nil {
		t.Fatal(err)
	}
	rows := func(r *Result) map[[3]int]int {
		m := map[[3]int]int{}
		for _, qt := range r.Queries {
			m[[3]int{qt.Run, qt.Stream, qt.QueryID}] = qt.Rows
		}
		return m
	}
	a, b := rows(resLoaded), rows(resGen)
	for k, v := range b {
		if a[k] != v {
			t.Errorf("query %v: loaded-run rows %d vs generated-run rows %d", k, a[k], v)
		}
	}
}

// dumpFreshDatabase generates the configured database without running
// the benchmark and dumps it as flat files.
func dumpFreshDatabase(cfg Config, dir string) error {
	db := freshDB(cfg)
	return db.DumpDir(dir)
}

// TestRepeatedRunsMatch runs the full benchmark twice on fresh engines
// with result digests on: every (run, stream, query) must return the
// same rows and checksum both times, whatever order the two concurrent
// streams' queries interleaved in and whichever stream built a shared
// index, statistic or plan first. It is also the -race exercise of the
// engine and driver concurrency (`go test -race ./internal/driver`).
func TestRepeatedRunsMatch(t *testing.T) {
	cfg := tinyCfg()
	cfg.Digest = true
	digests := func() map[[3]int][2]uint64 {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := map[[3]int][2]uint64{}
		for _, qt := range res.Queries {
			m[[3]int{qt.Run, qt.Stream, qt.QueryID}] = [2]uint64{uint64(qt.Rows), qt.Checksum}
		}
		return m
	}
	a, b := digests(), digests()
	if len(a) != len(b) {
		t.Fatalf("execution counts differ: %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("query %v: rows and checksum %v, then %v", k, v, b[k])
		}
	}
}
