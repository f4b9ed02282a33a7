package main

import (
	"fmt"
	"runtime"
	"time"

	"tpcds/internal/datagen"
	"tpcds/internal/driver"
	"tpcds/internal/maintenance"
)

// workload is one set of inputs the benchmark runs, closed loop: one
// client (two streams on full_test_2s), each sending its next request
// when the previous one has completed.
type workload struct {
	name string
	why  string
	// sf is the scale factor the committed digests and the recorded
	// numbers belong to. The sizes are set by the contract's total run
	// time (92 runs in 57 minutes), not by what the engine can hold.
	sf float64
	// setup builds, from nothing, the state the repetitions need.
	setup func(r *run) error
	// rep is the timed region of one repetition; round numbers its
	// inputs (the substitution stream on power_serial).
	rep func(r *run, round int) error
	// tail is the latency percentile query_tail_ms reports: the highest
	// of tailSteps that has ten samples beyond it in a run of the
	// default length on this workload — except on refresh_mixed, where
	// p95 would sit inside the one heaviest of 12 templates (8% of the
	// samples) and move 20% with the seed's substitutions; p90 moves 5%.
	tail float64
	// probe measures, on the traced run, the layers the repetitions
	// cannot time from outside.
	probe func(r *run) error
}

// mixedTemplates is the fixed subset refresh_mixed and the full test's
// warm-up run: three templates per sales channel plus
// inventory and cross-channel ones, so that every fact table and every
// dimension the maintenance run updates is read, with every qgen.Class
// (ad-hoc, reporting, hybrid) and every qgen.Type (standard, iterative
// OLAP, data mining) present.
var mixedTemplates = []int{
	21, 83, 89, // store: iterative drill; item+promotion; store_returns+store
	20, 28, 91, // catalog: the paper's Query 20; catalog_page; catalog_returns+call_center
	61, 69, 71, // web: web_returns+item; customer_address; data mining over web_page+web_site
	39, 76, 78, // inventory+warehouse; hybrid over all three sales facts; hybrid with customer
}

// firstQueries is what gen_load asks of the engine it has just loaded:
// every fourth template, 25 of the 99. Its query metrics are the median
// and a percentile over distinct queries that each run once per query
// run, so they need more distinct queries than the 12 above to be steady.
var firstQueries = func() []int {
	var ids []int
	for id := 1; id <= 99; id += 4 {
		ids = append(ids, id)
	}
	return ids
}()

// cyclesPerRep is how many refresh+query cycles make one repetition of
// refresh_mixed; goldenCycles how many cycles the golden file covers
// (later cycles are checked against the row-count invariant only).
const (
	cyclesPerRep = 4
	goldenCycles = 24
)

var workloads = []*workload{
	{
		name: "power_serial",
		why: "one client, all 99 templates on a warm engine: exec does nearly all the work, " +
			"plan cache hits ~100%, datagen, flat files, maintenance and concurrency are bypassed",
		sf: 0.01, tail: 0.95, setup: setupPower, rep: repPower, probe: probePower,
	},
	{
		name: "full_test_2s",
		why: "the paper's Figure 11 test through driver.Run, 2 streams on a cold engine: plan search, " +
			"statistics, lazy index builds, stream contention and post-maintenance rebuilds do real work",
		sf: 0.005, tail: 0.95, setup: setupFullTest, rep: repFullTest, probe: probeFullTest,
	},
	{
		name: "gen_load",
		why: "generate, dump flat files, load them and build auxiliary structures: datagen, " +
			"storage WriteFlat/ReadFlat and index builds do nearly all the work, exec almost none",
		sf: 0.01, tail: 0.90, setup: setupGenLoad, rep: repGenLoad, probe: probeGenLoad,
	},
	{
		name: "refresh_mixed",
		why: "refresh sets interleaved with 12 templates: every cycle invalidates indexes, statistics and " +
			"cached plans, so a read-side gain bought with heavier structures or slower writes shows as a loss",
		sf: 0.01, tail: 0.90, setup: setupRefresh, rep: repRefresh, probe: probeRefresh,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---- power_serial ----

// powerStreams is how many substitution streams the passes rotate
// through: pass i runs stream i mod powerStreams. One stream's literals
// can make a template several times cheaper or dearer than another's,
// so a single stream would make the numbers a property of the seed.
const powerStreams = 4

func setupPower(r *run) error {
	r.load()
	for stream := 0; stream < powerStreams; stream++ {
		qs, err := r.instantiate(nil, stream)
		if err != nil {
			return err
		}
		r.streams = append(r.streams, qs)
	}
	// One untimed pass fills the plan cache (keyed by statement shape,
	// not literals), the lazy indexes and the statistics; its
	// per-template times are the cold executions.
	for _, q := range r.streams[0] {
		r.verify(powerKey(q), r.execQuery(q, powerKey(q), false))
	}
	return nil
}

func repPower(r *run, round int) error {
	for _, q := range r.streams[round%powerStreams] {
		r.verify(powerKey(q), r.execQuery(q, powerKey(q), true))
	}
	return nil
}

// powerKey names a query as dsbench -digest names it in query run 1.
func powerKey(q query) string { return fmt.Sprintf("run=1 stream=%d q%d", q.stream, q.id) }

// ---- full_test_2s ----

func (r *run) driverConfig() driver.Config {
	return driver.Config{SF: r.sf, Seed: r.cfg.seed, Parallelism: 1, Digest: true}
}

// setupFullTest is a warm-up: the full test starts from nothing, so
// there is no state to build, but the first test in a process also pays
// for growing the heap to the size of a database. One short untimed
// test (one stream, the mixed subset) pays that here.
func setupFullTest(r *run) error {
	cfg := r.driverConfig()
	cfg.Streams, cfg.QueryIDs = 1, mixedTemplates
	_, err := driver.RunContext(r.ctx, cfg)
	r.check.op("warm-up test", err)
	return nil
}

func repFullTest(r *run, _ int) error {
	cfg := r.driverConfig()
	cfg.Streams = 2
	res := r.driverRun(cfg, "full test")
	if res == nil {
		return nil
	}
	t := res.Report.Timings
	r.add("t_load_s", t.Load.Seconds())
	r.add("t_qr1_s", t.QR1.Seconds())
	r.add("t_qr2_s", t.QR2.Seconds())
	r.add("qphds", res.Report.QphDS)
	r.addDriverShape(res)
	return nil
}

// driverRun runs one test through the driver, counts the test, its
// queries and its maintenance run as operations, verifies every query
// digest, and rebuilds the spans inside the call from its result.
func (r *run) driverRun(cfg driver.Config, what string) *driver.Result {
	id := r.tr.begin("driver.Run", "driver", 0)
	res, err := driver.RunContext(r.ctx, cfg)
	r.tr.end(id)
	r.check.op(what, err)
	if err != nil {
		return nil
	}
	t := res.Report.Timings
	phaseSpan := map[int]int{
		1: r.tr.add(id, "query run 1", "driver", 0, t.Load, t.QR1),
		2: r.tr.add(id, "query run 2", "driver", 0, t.Load+t.QR1+t.DM, t.QR2),
	}
	// The load phase belongs to the module that produces the tables; it
	// includes the auxiliary structures index.warm_ms times on its own.
	loadLayer := "datagen"
	if cfg.DataDir != "" {
		loadLayer = "storage"
	}
	r.tr.add(id, "load", loadLayer, 0, 0, t.Load)
	dm := r.tr.add(id, "data maintenance", "driver", 0, t.Load+t.QR1, t.DM)
	r.tr.add(dm, "maintenance.Run", "maintenance", 0, t.DM-res.DMStats.Total(), res.DMStats.Total())
	r.check.op(what+" maintenance", nil)
	r.addMaintenance(res.DMStats)
	r.add("driver.dm_ms", t.DM.Seconds()*1e3)

	// Within one stream the driver lists queries in execution order.
	type lane struct{ run, stream int }
	cursor := map[lane]time.Duration{}
	for _, qt := range res.Queries {
		key := fmt.Sprintf("run=%d stream=%d q%d", qt.Run, qt.Stream, qt.QueryID)
		var qerr error
		if qt.Err != "" {
			qerr = fmt.Errorf("%s", qt.Err)
		}
		r.check.op(key, qerr)
		if qerr != nil {
			continue
		}
		r.check.outcome(key, queryOutcome(qt.Rows, qt.Checksum))
		ms := qt.Exec.Seconds() * 1e3
		r.queryMs = append(r.queryMs, ms)
		r.execMs[qt.QueryID] = append(r.execMs[qt.QueryID], ms)
		l := lane{qt.Run, qt.Stream}
		r.tr.add(phaseSpan[qt.Run], "query", "exec", qt.QueryID, cursor[l], qt.Exec)
		cursor[l] += qt.Duration
	}
	hits, misses := res.Engine.PlanCacheStats()
	r.cacheHits += hits
	r.cacheMisses += misses
	return res
}

// ---- gen_load ----

func (r *run) flatDir() string { return r.scratch("flat") }

// setupGenLoad pays the first-touch costs — creating the flat files,
// growing the heap to one database — so that the first timed
// repetition is like the rest.
func setupGenLoad(r *run) error {
	return datagen.New(r.sf, r.cfg.seed).GenerateAll().DumpDir(r.flatDir())
}

func repGenLoad(r *run, _ int) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	id := r.tr.begin("GenerateAll", "datagen", 0)
	db := datagen.New(r.sf, r.cfg.seed).GenerateAll()
	r.tr.end(id)
	generated := time.Now()
	runtime.ReadMemStats(&m1)
	id = r.tr.begin("DumpDir", "storage", 0)
	err := db.DumpDir(r.flatDir())
	r.tr.end(id)
	dumped := time.Now()
	r.check.op("generate and dump", err)
	if err != nil {
		return nil
	}
	rows := db.TotalRows()
	r.add("gen_s", dumped.Sub(t0).Seconds())
	r.add("datagen.gen_ms", generated.Sub(t0).Seconds()*1e3)
	r.add("datagen.rows_per_s", float64(rows)/generated.Sub(t0).Seconds())
	r.add("datagen.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	bytes, err := dirBytes(r.flatDir())
	if err != nil {
		return err
	}
	r.add("storage.write_ms", dumped.Sub(generated).Seconds()*1e3)
	r.add("storage.write_mb_per_s", float64(bytes)/1e6/dumped.Sub(generated).Seconds())

	cfg := r.driverConfig()
	cfg.DataDir, cfg.Streams, cfg.QueryIDs = r.flatDir(), 1, firstQueries
	res := r.driverRun(cfg, "load test")
	if res == nil {
		return nil
	}
	r.add("load_s", res.Report.Timings.Load.Seconds())
	// The maintenance run inside the test changed the fact tables, the
	// dimensions keep the cardinality the flat files had.
	loaded := res.Engine.DB()
	for _, name := range loaded.Names() {
		key := "table=" + name
		r.check.op(key, nil)
		r.check.outcome(key, fmt.Sprintf("rows=%d", loaded.Table(name).NumRows()))
	}
	return nil
}

// ---- refresh_mixed ----

func setupRefresh(r *run) error {
	r.load()
	qs, err := r.instantiate(mixedTemplates, 0)
	if err != nil {
		return err
	}
	for _, q := range qs {
		r.verify(refreshKey(0, q), r.execQuery(q, refreshKey(0, q), false))
	}
	return nil
}

func refreshKey(cycle int, q query) string { return fmt.Sprintf("cycle=%d q%d", cycle, q.id) }

// salesFacts are the tables the refresh inserts into and deletes from.
var salesFacts = []string{"store_sales", "store_returns", "catalog_sales", "catalog_returns", "web_sales", "web_returns"}

func (r *run) salesFactRows() int {
	n := 0
	for _, name := range salesFacts {
		n += r.db.Table(name).NumRows()
	}
	return n
}

func repRefresh(r *run, _ int) error {
	var dm time.Duration
	for i := 0; i < cyclesPerRep; i++ {
		r.cycle++
		before, inventory := r.salesFactRows(), r.db.Table("inventory").NumRows()
		id := r.tr.begin("maintenance.GenerateRefresh", "maintenance", 0)
		t0 := time.Now()
		rs, err := maintenance.GenerateRefresh(r.db, r.cfg.seed, r.cycle)
		r.tr.end(id)
		r.add("maintenance.gen_refresh_ms", time.Since(t0).Seconds()*1e3)
		what := fmt.Sprintf("cycle=%d refresh", r.cycle)
		if err != nil {
			r.check.op(what, err)
			continue
		}
		id = r.tr.begin("maintenance.Run", "maintenance", 0)
		t0 = time.Now()
		stats, err := maintenance.Run(r.eng, rs)
		dm += time.Since(t0)
		r.tr.end(id)
		r.check.op(what, err)
		if err != nil {
			// A half-applied refresh leaves no state worth querying.
			return fmt.Errorf("%s: %w", what, err)
		}
		r.addMaintenance(stats)
		// Holds for every seed: the refresh changes the sales facts by
		// exactly what it reports, and replaces inventory row for row.
		after := r.salesFactRows()
		if want := before + stats.FactInserts - stats.FactDeletes; after != want {
			r.check.fail(fmt.Sprintf("%s: %d sales fact rows, want %d", what, after, want))
		}
		if got := r.db.Table("inventory").NumRows(); got != inventory {
			r.check.fail(fmt.Sprintf("%s: %d inventory rows, want %d", what, got, inventory))
		}
		if r.cycle <= goldenCycles {
			r.check.outcome(fmt.Sprintf("cycle=%d facts", r.cycle), fmt.Sprintf("rows=%d", after))
		}
		// Each cycle draws fresh substitutions, as each query run of the
		// paper's test does: stream = cycle number.
		qs, err := r.instantiate(mixedTemplates, r.cycle)
		if err != nil {
			return err
		}
		for _, q := range qs {
			// No two cycles query the same database state, so past the
			// golden cycles there is nothing to compare a digest with;
			// the query still has to succeed.
			res := r.execQuery(q, refreshKey(r.cycle, q), true)
			if r.cycle <= goldenCycles {
				r.verify(refreshKey(r.cycle, q), res)
			}
		}
	}
	r.add("dm_s", dm.Seconds())
	return nil
}

// addMaintenance records one maintenance run's operation times and row
// throughput.
func (r *run) addMaintenance(s maintenance.Stats) {
	rows := 0
	for _, op := range s.Ops {
		r.add("maintenance."+op.Name+"_ms", op.Duration.Seconds()*1e3)
		rows += op.Rows
	}
	if total := s.Total().Seconds(); total > 0 {
		r.add("maintenance.rows_per_s", float64(rows)/total)
	}
}
