// Package driver implements the TPC-DS execution rules (§5.2, Figure
// 11): the benchmark test is a database load test followed by a
// performance test of two query runs around one data maintenance run.
// Each query run executes S concurrent streams; every stream runs all
// 99 queries in a stream-specific permutation with stream-specific
// substitutions. The second query run reveals any query performance
// changes due to deferred maintenance of auxiliary structures — every
// table the maintenance run changes moves to a new epoch, and the
// engine rebuilds the indexes, statistics and plans derived from it on
// first use during Query Run 2, so their cost lands inside the measured
// interval exactly as §5.2 intends.
package driver

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"tpcds/internal/datagen"
	"tpcds/internal/exec"
	"tpcds/internal/maintenance"
	"tpcds/internal/metric"
	"tpcds/internal/obs"
	"tpcds/internal/qgen"
	"tpcds/internal/queries"
	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

// Config parameterizes a benchmark run.
type Config struct {
	// SF is the scale factor (raw data GB). Official publications
	// require one of scaling.OfficialScaleFactors; development runs may
	// use any positive value.
	SF float64
	// Streams is the concurrent query stream count; 0 selects the
	// minimum required for the scale factor (Figure 12).
	Streams int
	// Seed drives data generation and query substitution.
	Seed uint64
	// Digest computes a deterministic FNV-1a checksum of every query's
	// result (all values, row order included) into
	// QueryTiming.Checksum. CI diffs the digests of two runs to prove
	// that stream interleaving never changes results.
	Digest bool
	// QueryIDs selects a template subset; empty means all 99. Subset
	// runs are development-only (the metric requires the full set).
	QueryIDs []int
	// DataDir, when set, loads the database from dsdgen flat files
	// instead of generating it in-process — the official load-test
	// input path. The files must match the configured scale factor.
	DataDir string
	// Parallelism is ignored: every query runs on its stream's
	// goroutine.
	//
	// Deprecated: kept only because the benchmark harness under bench/
	// still sets it; the [benchmark] change that deletes the harness's
	// no-op parallelism settings removes that setting and this field.
	Parallelism int
	// QueryTimeout is the per-query deadline inside each stream; 0
	// means no deadline. A query exceeding it is cancelled and
	// recorded as a timeout.
	QueryTimeout time.Duration
	// OnError selects the stream policy for a failed or timed-out
	// query: OnErrorAbort (the default) cancels the run, OnErrorSkip
	// records the failure in the report and continues with the stream's
	// next query — a runaway template then costs one query, not the
	// multi-hour run.
	OnError string
	// QueryHook, when set, is installed on the engine and runs at the
	// start of every query inside the engine's per-query recover scope.
	// It is the fault-injection point for robustness tests.
	QueryHook func(query string)
	// Price is the 3-year TCO model for the price-performance metric.
	Price metric.PriceModel
	// Tracer, when set, records the span tree of the whole benchmark:
	// benchmark → load / query run N / maintenance, each query run →
	// stream → query, and below the query the engine's operator
	// spans. A nil Tracer keeps the hot path on the engine's
	// zero-cost disabled fast path.
	Tracer *obs.Tracer
	// Metrics, when set, receives the engine's row and batch counters and
	// the driver's per-template execution-latency histograms; the
	// distributions surface as Report.Latencies.
	Metrics *obs.Registry
	// MaxConcurrent caps the queries in flight across all streams of a
	// query run; 0 means no cap (every stream's query is admitted
	// immediately). With a cap, the time a query spends waiting for
	// admission is recorded as QueryTiming.Wait, separate from Exec —
	// queue pressure becomes visible instead of inflating per-query
	// execution times.
	MaxConcurrent int
}

// OnError policies.
const (
	OnErrorAbort = "abort"
	OnErrorSkip  = "skip"
)

// QueryTiming records one query execution within a run.
type QueryTiming struct {
	Run     int // 1 or 2
	Stream  int
	QueryID int
	// Duration is the query's wall-clock time as the stream saw it:
	// Wait + Exec. Wait is the time spent queued at the admission gate
	// (zero without Config.MaxConcurrent); Exec is the time inside the
	// engine. The per-query deadline applies to Exec only — a query
	// must not time out for being queued.
	Duration time.Duration
	Wait     time.Duration
	Exec     time.Duration
	Rows     int
	// Err is the query's failure message ("" on success). Under
	// OnErrorSkip failed queries stay in the record with Err set, so
	// the report can count them without sinking the run.
	Err string
	// TimedOut marks an Err caused by the per-query deadline.
	TimedOut bool
	// Checksum is the FNV-1a digest of the result (Config.Digest only):
	// column names, then every value of every row in order.
	Checksum uint64
}

// Result is the full outcome of a benchmark test.
type Result struct {
	Config  Config
	Report  metric.Report
	Queries []QueryTiming
	DMStats maintenance.Stats
	// Engine retains the loaded system under test for inspection.
	Engine *exec.Engine
}

// Run executes the complete benchmark test (Figure 11).
func Run(cfg Config) (*Result, error) {
	//lint:ignore ctxflow Run is the documented context-free convenience wrapper over RunContext
	return RunContext(context.Background(), cfg)
}

// RunContext executes the complete benchmark test under ctx: cancelling
// ctx aborts the current phase (streams observe it between queries and
// inside each running query).
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.SF <= 0 {
		return nil, fmt.Errorf("driver: non-positive scale factor")
	}
	if cfg.Streams == 0 {
		cfg.Streams = metric.MinStreams(cfg.SF)
	}
	if cfg.Streams < 0 {
		return nil, fmt.Errorf("driver: negative stream count")
	}
	switch cfg.OnError {
	case "", OnErrorAbort, OnErrorSkip:
	default:
		return nil, fmt.Errorf("driver: unknown OnError policy %q (want %q or %q)",
			cfg.OnError, OnErrorAbort, OnErrorSkip)
	}
	if cfg.MaxConcurrent < 0 {
		return nil, fmt.Errorf("driver: negative MaxConcurrent")
	}
	if cfg.QueryTimeout < 0 {
		return nil, fmt.Errorf("driver: negative QueryTimeout")
	}
	tpl, err := selectTemplates(cfg.QueryIDs)
	if err != nil {
		return nil, err
	}

	res := &Result{Config: cfg}
	var timings metric.Timings
	root := cfg.Tracer.Root("benchmark", "driver")
	defer root.End()

	// ---- Load test: generate or load, then build auxiliary structures. ----
	loadSp := root.Child("load")
	loadStart := time.Now()
	var db *storage.DB
	switch {
	case cfg.DataDir != "":
		db, err = storage.LoadDir(cfg.DataDir, schema.Tables())
		if err != nil {
			return nil, fmt.Errorf("driver: load test: %w", err)
		}
	default:
		gen := datagen.New(cfg.SF, cfg.Seed)
		gen.SetObservability(loadSp, cfg.Metrics)
		db = gen.GenerateAll()
	}
	eng := exec.New(db)
	eng.SetQueryHook(cfg.QueryHook)
	eng.SetMetrics(cfg.Metrics)
	warmAuxiliaryStructures(eng)
	timings.Load = time.Since(loadStart)
	loadSp.End()
	res.Engine = eng

	// ---- Query Run 1. ----
	qr1Sp := root.Child("query run 1")
	qr1Start := time.Now()
	t1, err := runQueryRun(ctx, eng, tpl, cfg, 1, qr1Sp)
	timings.QR1 = time.Since(qr1Start)
	qr1Sp.End()
	res.Queries = append(res.Queries, t1...)
	if err != nil {
		return nil, err
	}

	// ---- Data Maintenance run. ----
	dmSp := root.Child("maintenance")
	dmStart := time.Now()
	rs, err := maintenance.GenerateRefresh(db, cfg.Seed, 1)
	if err != nil {
		return nil, fmt.Errorf("driver: refresh generation: %w", err)
	}
	stats, err := maintenance.Run(eng, rs)
	if err != nil {
		return nil, fmt.Errorf("driver: data maintenance: %w", err)
	}
	timings.DM = time.Since(dmStart)
	dmSp.End()
	res.DMStats = stats

	// ---- Query Run 2 (fresh substitutions, §5.2). ----
	qr2Sp := root.Child("query run 2")
	qr2Start := time.Now()
	t2, err := runQueryRun(ctx, eng, tpl, cfg, 2, qr2Sp)
	timings.QR2 = time.Since(qr2Start)
	qr2Sp.End()
	res.Queries = append(res.Queries, t2...)
	if err != nil {
		return nil, err
	}

	// The metric is computed over the templates actually run: a subset
	// run gets an honest development-only QphDS, never a number that
	// pretends all 99 templates executed.
	res.Report = metric.NewReportForQueries(cfg.SF, cfg.Streams, len(tpl), timings, cfg.Price)
	errs, timeouts := 0, 0
	for _, qt := range res.Queries {
		if qt.Err != "" {
			errs++
			if qt.TimedOut {
				timeouts++
			}
		}
		res.Report.QueueWait += qt.Wait
		res.Report.ExecTime += qt.Exec
	}
	res.Report = res.Report.WithErrorCounts(errs, timeouts)
	res.Report.Latencies = templateLatencies(cfg.Metrics, res.Queries)
	return res, nil
}

// selectTemplates resolves the configured query subset.
func selectTemplates(ids []int) ([]qgen.Template, error) {
	if len(ids) == 0 {
		return queries.All(), nil
	}
	out := make([]qgen.Template, 0, len(ids))
	for _, id := range ids {
		t, err := queries.ByID(id)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// warmAuxiliaryStructures builds the basic auxiliary structures during
// the load test, whose elapsed time the metric charges at 1% per stream
// (§5.3). Hash indexes on dimension surrogate keys are "basic"
// structures allowed everywhere; bitmap indexes on the fact foreign
// keys of the catalog channel are the "complex" structures allowed only
// in the reporting part of the schema (§2.2).
func warmAuxiliaryStructures(eng *exec.Engine) {
	db := eng.DB()
	// Basic: surrogate-key hash indexes on every dimension.
	for _, name := range db.Names() {
		t := db.Table(name)
		if t.Def.Kind != schema.Dimension {
			continue
		}
		if len(t.Def.PrimaryKey) == 1 {
			eng.WarmHashIndex(t.Def.Name, t.Def.PrimaryKey[0])
		}
	}
	// Complex (reporting part only): fact FK bitmap indexes on the
	// catalog channel.
	cs := db.Table("catalog_sales")
	for _, fk := range cs.Def.ForeignKeys {
		eng.WarmBitmapIndex("catalog_sales", fk.Column)
	}
}

// runQueryRun executes one query run: S concurrent streams, each
// running all templates in its own permuted order with its own
// substitutions. Each query runs under the configured per-query
// deadline. A failed query is handled per cfg.OnError: skip records it
// in its stream's timings and moves on; abort cancels the sibling
// streams (they drain at their next cancellation point) and fails the
// run with the first non-cancellation error.
func runQueryRun(ctx context.Context, eng *exec.Engine, tpl []qgen.Template, cfg Config, run int, runSp *obs.Span) ([]QueryTiming, error) {
	type streamResult struct {
		timings []QueryTiming
		err     error
	}
	// Abort policy: one stream's failure cancels its siblings through
	// this shared context, so the run ends promptly instead of waiting
	// out S-1 unaffected streams.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	skip := cfg.OnError == OnErrorSkip
	// Admission gate: a buffered channel whose capacity is the number
	// of queries allowed in flight. Streams acquire a slot before each
	// query and release it after; a nil gate admits immediately.
	var gate chan struct{}
	if cfg.MaxConcurrent > 0 {
		gate = make(chan struct{}, cfg.MaxConcurrent)
	}
	// Ownership: runQueryRun owns all S stream goroutines — Add before
	// each spawn, Done as each stream's first defer, and the wg.Wait
	// below joins them before results is read, so slot writes (each
	// stream writes only results[stream]) happen-before the merge and
	// no stream outlives the run. Streams exit on their own or through
	// runCtx cancellation; there is no third path.
	results := make([]streamResult, cfg.Streams)
	var wg sync.WaitGroup
	for s := 0; s < cfg.Streams; s++ {
		wg.Add(1)
		go func(stream int) {
			defer wg.Done()
			// Each stream gets its own trace lane: tid stream+1 keeps the
			// streams on separate rows in the Chrome trace viewer while
			// the driver phases stay on lane 0.
			streamSp := runSp.ChildTID(fmt.Sprintf("stream %d", stream), stream+1)
			defer streamSp.End()
			// Run 2 uses a disjoint stream-id space so its substitutions
			// differ from run 1 while remaining deterministic.
			effStream := stream + (run-1)*1000
			order := qgen.SessionPermutation(cfg.Seed, effStream, tpl)
			var out []QueryTiming
			defer func() { results[stream].timings = out }()
			for _, idx := range order {
				if runCtx.Err() != nil {
					results[stream].err = fmt.Errorf("stream %d: %w", stream, runCtx.Err())
					return
				}
				t := tpl[idx]
				text, err := qgen.Instantiate(t, qgen.StreamSeed(cfg.Seed, effStream, t.ID))
				if err != nil {
					// A template that fails to instantiate is a harness bug,
					// not a query failure: always fatal to the run.
					results[stream].err = fmt.Errorf("stream %d query %d: %w", stream, t.ID, err)
					cancelRun()
					return
				}
				qt, err := runOneQuery(runCtx, eng, cfg, streamSp, gate, t.ID, text)
				qt.Run, qt.Stream, qt.QueryID = run, stream, t.ID
				out = append(out, qt)
				if err != nil && !skip {
					results[stream].err = fmt.Errorf("stream %d query %d: %w", stream, t.ID, err)
					cancelRun()
					return
				}
			}
		}(s)
	}
	wg.Wait()
	var all []QueryTiming
	var firstErr error
	for _, r := range results {
		all = append(all, r.timings...)
		if r.err != nil && (firstErr == nil || errRank(r.err) < errRank(firstErr)) {
			firstErr = r.err
		}
	}
	return all, firstErr
}

// errRank orders run failures by how likely they are the originating
// one: a real query error beats a per-query deadline expiry, which
// beats the "context canceled" every aborted sibling stream reports
// after cancelRun fires. Without the ranking the run's error would be
// whichever stream index is lowest — usually a secondary cancellation.
func errRank(err error) int {
	switch {
	case errors.Is(err, context.Canceled):
		return 2
	case errors.Is(err, context.DeadlineExceeded):
		return 1
	default:
		return 0
	}
}

// runOneQuery executes one query under the per-query deadline and
// reports its timing. On failure the timing carries the error; the
// returned error is non-nil so the caller can apply the OnError policy.
// The admission gate is acquired BEFORE the timeout context is created,
// so a query never times out while queued — the deadline measures the
// engine, not the driver's own backpressure.
func runOneQuery(ctx context.Context, eng *exec.Engine, cfg Config, streamSp *obs.Span, gate chan struct{}, tplID int, text string) (QueryTiming, error) {
	qsp := streamSp.Child(fmt.Sprintf("q%d", tplID))
	defer qsp.End()
	var qt QueryTiming
	if gate != nil {
		wsp := qsp.Child("queue")
		waitStart := time.Now()
		select {
		case gate <- struct{}{}:
			defer func() { <-gate }()
		case <-ctx.Done():
			qt.Wait = time.Since(waitStart)
			qt.Duration = qt.Wait
			qt.Err = ctx.Err().Error()
			wsp.End()
			return qt, ctx.Err()
		}
		qt.Wait = time.Since(waitStart)
		wsp.End()
	}
	qctx, cancel := ctx, func() {}
	if cfg.QueryTimeout > 0 {
		qctx, cancel = context.WithTimeout(ctx, cfg.QueryTimeout)
	}
	defer cancel()
	qctx = obs.ContextWithSpan(qctx, qsp)
	start := time.Now()
	r, err := eng.QueryContext(qctx, text)
	qt.Exec = time.Since(start)
	qt.Duration = qt.Wait + qt.Exec
	if cfg.Metrics != nil {
		cfg.Metrics.Histogram(templateHistogram(tplID)).ObserveDuration(qt.Exec)
		cfg.Metrics.Histogram("driver_query_wait_ns").ObserveDuration(qt.Wait)
		cfg.Metrics.Counter("driver_queries").Add(1)
	}
	if err != nil {
		qt.Err = err.Error()
		qt.TimedOut = errors.Is(err, context.DeadlineExceeded)
		qsp.SetAttr("err", qt.Err)
		return qt, err
	}
	qt.Rows = len(r.Rows)
	if cfg.Digest {
		qt.Checksum = resultChecksum(r)
	}
	qsp.SetAttrInt("rows", int64(qt.Rows))
	return qt, nil
}

// resultChecksum digests a query result — column names, then every
// value of every row in order — with FNV-1a. Byte-identical results
// (including row order) produce equal checksums, so diffing digests
// across runs proves result equality without retaining the rows. A
// value's AppendGroupKey bytes are hashed where they are encoded.
func resultChecksum(r *exec.Result) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(s []byte) {
		for _, b := range s {
			h ^= uint64(b)
			h *= prime
		}
		h ^= 0xff // field separator
		h *= prime
	}
	for _, c := range r.Columns {
		mix([]byte(c))
	}
	var buf []byte
	for _, row := range r.Rows {
		for _, v := range row {
			buf = v.AppendGroupKey(buf[:0])
			mix(buf)
		}
	}
	return h
}

// SlowestQueries returns the n slowest query executions — §5.3's point
// that without a power metric, tuning effort concentrates on the
// longest-running queries.
func (r *Result) SlowestQueries(n int) []QueryTiming {
	out := make([]QueryTiming, len(r.Queries))
	copy(out, r.Queries)
	sort.Slice(out, func(i, j int) bool { return out[i].Duration > out[j].Duration })
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// QueryRunDelta reports the relative elapsed-time change of query run 2
// versus run 1 per query id (positive = slower after maintenance).
func (r *Result) QueryRunDelta() map[int]float64 {
	sum := map[int][2]time.Duration{}
	for _, qt := range r.Queries {
		s := sum[qt.QueryID]
		s[qt.Run-1] += qt.Duration
		sum[qt.QueryID] = s
	}
	out := map[int]float64{}
	for id, s := range sum {
		if s[0] > 0 {
			out[id] = float64(s[1]-s[0]) / float64(s[0])
		}
	}
	return out
}
