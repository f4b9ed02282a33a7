package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"tpcds/internal/datagen"
	"tpcds/internal/exec"
	"tpcds/internal/qgen"
	"tpcds/internal/queries"
	"tpcds/internal/schema"
	"tpcds/internal/sql"
	"tpcds/internal/storage"
)

// setupRuns is how often a run builds its set-up: setup_s is the median,
// because one set-up in a run is one sample of a noisy host.
const setupRuns = 3

// config is what one invocation asks of one workload.
type config struct {
	workload     string
	seed         uint64
	seconds      float64 // length of the timed region
	trace        bool
	sf           float64 // 0 selects the workload's own scale factor
	dir          string  // scratch directory for flat files and spans
	updateGolden bool
	setups       int // 0 selects setupRuns; the smoke tests set up once
}

// query is one template instantiated with one stream's substitutions.
type query struct {
	id     int
	stream int
	text   string
}

// run is one measurement of one workload: the samples it collects and
// the state its set-up built.
type run struct {
	ctx   context.Context
	cfg   config
	w     *workload
	sf    float64
	tr    *tracer // nil on the end-to-end run
	check *checker

	// samples holds one value per repetition (per set-up for setup_s)
	// under the metric's name; the report is their median.
	samples map[string][]float64
	// queryMs is the latency of every timed query, parse + run.
	queryMs []float64
	// execMs is the Engine.Run (or driver Exec) time of every timed
	// query by template; coldMs the set-up's execution on the fresh engine.
	execMs map[int][]float64
	coldMs map[int]float64
	// planSources counts Trace.PlanSource over the traced repetitions.
	planSources map[string]int
	// cacheHits and cacheMisses are Engine.PlanCacheStats over the
	// timed repetitions; parseUs sums sql.Parse over the timed queries.
	cacheHits, cacheMisses int64
	parseUs                float64
	reps                   int

	// State built by set-up.
	db      *storage.DB
	eng     *exec.Engine
	streams [][]query // power_serial: the substitution streams the passes rotate through
	cycle   int       // refresh_mixed: refresh sets applied so far
}

func newRun(ctx context.Context, cfg config, w *workload) (*run, error) {
	r := &run{ctx: ctx, cfg: cfg, w: w, sf: w.sf,
		samples: map[string][]float64{}, execMs: map[int][]float64{},
		coldMs: map[int]float64{}, planSources: map[string]int{}}
	if cfg.sf > 0 {
		r.sf = cfg.sf
	}
	if cfg.trace {
		r.tr = newTracer(w.name)
	}
	// The committed digests describe one input: the golden seed at the
	// workload's own scale factor.
	useGolden := !cfg.updateGolden && cfg.seed == goldenSeed && r.sf == w.sf
	var err error
	r.check, err = newChecker(w.name, useGolden)
	return r, err
}

func (r *run) add(metric string, v float64) { r.samples[metric] = append(r.samples[metric], v) }

// reset drops the state of the previous set-up so that two databases are
// never live at once and peak_rss_mb describes one.
func (r *run) reset() {
	r.db, r.eng, r.streams, r.cycle = nil, nil, nil, 0
	runtime.GC()
}

// measure runs the workload: set-up, the timed repetitions and, on the
// traced run, the layer probes.
func (r *run) measure() error {
	setups, seconds := setupRuns, r.cfg.seconds
	if r.cfg.setups > 0 {
		setups = r.cfg.setups
	}
	if r.tr != nil {
		// The traced run reports no setup_s, and splits its time
		// between the repetitions and the probes.
		setups, seconds = 1, seconds/2
		r.tr.on = true
	}
	for i := 0; i < setups; i++ {
		r.reset()
		id := r.tr.begin("set-up", "bench", 0)
		t0 := time.Now()
		err := r.w.setup(r)
		r.add("setup_s", time.Since(t0).Seconds())
		r.tr.end(id)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", r.w.name, err)
		}
	}
	if err := r.timedReps(seconds); err != nil {
		return err
	}
	if r.tr == nil {
		return nil
	}
	r.tr.on, r.tr.rep = true, -1
	id := r.tr.begin("probes", "bench", 0)
	err := r.w.probe(r)
	r.tr.end(id)
	if err != nil {
		return fmt.Errorf("%s probes: %w", r.w.name, err)
	}
	return nil
}

// timedReps repeats the workload's timed region, closed loop, until
// the time is used up: it stops when less than half a repetition is
// left. The traced run records spans on every other repetition, so
// that the same run yields the tracing overhead.
func (r *run) timedReps(seconds float64) error {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hits0, misses0 := r.planCacheStats()
	start := time.Now()
	for rep := 0; ; rep++ {
		// round numbers the inputs: a traced repetition and the untraced
		// one after it run the same round, so their ratio compares like
		// with like.
		kind, round := "wall_s", rep
		if r.tr != nil {
			r.tr.rep, r.tr.on = rep, rep%2 == 0
			kind, round = "untraced_wall_s", rep/2
			if r.tr.on {
				kind = "traced_wall_s"
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		id := r.tr.begin("repetition", "bench", 0)
		t0 := time.Now()
		err := r.w.rep(r, round)
		d := time.Since(t0).Seconds()
		r.tr.end(id)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return fmt.Errorf("%s repetition %d: %w", r.w.name, rep, err)
		}
		r.reps++
		r.add(kind, d)
		if r.tr != nil {
			r.add("wall_s", d)
		}
		r.add("alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		enough := time.Since(start).Seconds()+d/2 >= seconds
		if enough && (r.tr == nil || rep >= 1) {
			break
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(r.reps)
	r.add("runtime.gc_cycles", float64(after.NumGC-before.NumGC)/n)
	r.add("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6/n)
	hits1, misses1 := r.planCacheStats()
	r.cacheHits += hits1 - hits0
	r.cacheMisses += misses1 - misses0
	return nil
}

// planCacheStats reads the engine the set-up built; the workloads that
// build an engine per repetition inside driver.Run add theirs directly.
func (r *run) planCacheStats() (hits, misses int64) {
	if r.eng == nil {
		return 0, 0
	}
	return r.eng.PlanCacheStats()
}

// load is the in-process load test: generate the database, build the
// engine and its basic auxiliary structures — what driver.Run's load
// phase does.
func (r *run) load() {
	id := r.tr.begin("GenerateAll", "datagen", 0)
	r.db = datagen.New(r.sf, r.cfg.seed).GenerateAll()
	r.tr.end(id)
	r.eng = newEngine(r.db)
	id = r.tr.begin("warm auxiliary structures", "index", 0)
	warmAux(r.eng)
	r.tr.end(id)
}

// newEngine returns an engine at parallelism 1: the harness never gives
// a query more than one worker, so two streams fit two cores.
func newEngine(db *storage.DB) *exec.Engine {
	eng := exec.New(db)
	eng.SetParallelism(1)
	return eng
}

// warmAux builds the structures the driver's load test builds (its
// function is unexported): surrogate-key hash indexes on every
// dimension and bitmap indexes on the catalog channel's foreign keys.
func warmAux(eng *exec.Engine) {
	db := eng.DB()
	for _, name := range db.Names() {
		def := db.Table(name).Def
		if def.Kind == schema.Dimension && len(def.PrimaryKey) == 1 {
			eng.WarmHashIndex(def.Name, def.PrimaryKey[0])
		}
	}
	for _, fk := range db.Table("catalog_sales").Def.ForeignKeys {
		eng.WarmBitmapIndex("catalog_sales", fk.Column)
	}
}

// instantiate substitutes the templates with the seed's substitutions
// for the given stream — the texts driver.Run would run on that stream.
func (r *run) instantiate(ids []int, stream int) ([]query, error) {
	id := r.tr.begin("qgen.Instantiate", "qgen", 0)
	defer r.tr.end(id)
	tpls, err := templates(ids)
	if err != nil {
		return nil, err
	}
	qs := make([]query, 0, len(tpls))
	for _, t := range tpls {
		text, err := qgen.Instantiate(t, qgen.StreamSeed(r.cfg.seed, stream, t.ID))
		if err != nil {
			return nil, fmt.Errorf("instantiate q%d: %w", t.ID, err)
		}
		qs = append(qs, query{id: t.ID, stream: stream, text: text})
	}
	return qs, nil
}

// templates resolves ids; nil means all 99.
func templates(ids []int) ([]qgen.Template, error) {
	if ids == nil {
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

// execQuery parses and runs one query on the run's engine and counts it
// as an operation under key. A timed query adds its latency to the
// samples. The result is nil when the query failed.
func (r *run) execQuery(q query, key string, timed bool) *exec.Result {
	t0 := time.Now()
	id := r.tr.begin("sql.Parse", "sql", q.id)
	stmt, err := sql.Parse(q.text)
	r.tr.end(id)
	parsed := time.Now()
	var res *exec.Result
	if err == nil {
		id = r.tr.begin("Engine.Run", "exec", q.id)
		res, err = r.eng.RunContext(r.ctx, stmt)
		r.tr.end(id)
	}
	done := time.Now()
	r.check.op(key, err)
	if err != nil {
		return nil
	}
	ms := done.Sub(parsed).Seconds() * 1e3
	if !timed {
		r.coldMs[q.id] = ms
		return res
	}
	r.queryMs = append(r.queryMs, done.Sub(t0).Seconds()*1e3)
	r.execMs[q.id] = append(r.execMs[q.id], ms)
	r.parseUs += parsed.Sub(t0).Seconds() * 1e6
	if r.tr != nil && r.tr.on {
		r.planSources[planSource(r.eng.LastTrace().PlanSource)]++
	}
	return res
}

// verify checks a query result against the outcome recorded under key;
// a nil result has already been counted as failed.
func (r *run) verify(key string, res *exec.Result) {
	if res != nil {
		r.check.outcome(key, queryOutcome(len(res.Rows), resultChecksum(res)))
	}
}

// planSource folds Trace.PlanSource ("dp", "greedy", "cache:<source>")
// to the search that produced the plan or "cache".
func planSource(s string) string {
	if strings.HasPrefix(s, "cache") {
		return "cache"
	}
	return s
}

// scratch returns a path inside the run's scratch directory.
func (r *run) scratch(name string) string { return filepath.Join(r.cfg.dir, name) }

// dirBytes sums the sizes of the files directly inside dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// sortedIDs returns the template ids of m in ascending order.
func sortedIDs(m map[int][]float64) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
