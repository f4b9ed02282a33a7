package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"tpcds/internal/datagen"
	"tpcds/internal/driver"
	"tpcds/internal/index"
	"tpcds/internal/obs"
	"tpcds/internal/plan"
	"tpcds/internal/qgen"
	"tpcds/internal/queries"
	"tpcds/internal/schema"
	"tpcds/internal/sql"
	"tpcds/internal/storage"
)

// probeRepeats is how often a microsecond-scale probe repeats; its
// metric is the median.
const probeRepeats = 5

// ---- driver (every repetition of full_test_2s) ----

// addDriverShape records how the two streams shared the machine.
func (r *run) addDriverShape(res *driver.Result) {
	streams := res.Config.Streams
	t := res.Report.Timings
	var exec time.Duration
	perStream := map[[2]int]time.Duration{} // (run, stream) -> time the stream was busy
	for _, qt := range res.Queries {
		exec += qt.Exec
		perStream[[2]int{qt.Run, qt.Stream}] += qt.Duration
	}
	if exec > 0 {
		r.add("driver.stream_overhead_ratio", (t.QR1+t.QR2).Seconds()*float64(streams)/exec.Seconds())
	}
	var skew time.Duration
	for run := 1; run <= 2; run++ {
		lo, hi := perStream[[2]int{run, 0}], perStream[[2]int{run, 0}]
		for s := 1; s < streams; s++ {
			d := perStream[[2]int{run, s}]
			lo, hi = min(lo, d), max(hi, d)
		}
		skew += hi - lo
	}
	if qr := t.QR1 + t.QR2; qr > 0 {
		r.add("driver.stream_skew", skew.Seconds()/qr.Seconds())
	}
}

// probeFullTest runs the same test with one stream: the ratio of a
// template's execution time beside a second stream to its time alone is
// what contention for the cores, the collector and Engine.mu costs.
func probeFullTest(r *run) error {
	cfg := r.driverConfig()
	cfg.Streams = 1
	id := r.tr.begin("driver.Run", "driver", 0)
	res, err := driver.RunContext(r.ctx, cfg)
	r.tr.end(id)
	if err != nil {
		return err
	}
	alone := map[int][]float64{}
	for _, qt := range res.Queries {
		alone[qt.QueryID] = append(alone[qt.QueryID], qt.Exec.Seconds()*1e3)
	}
	var ratios []float64
	for _, id := range sortedIDs(alone) {
		if a := median(alone[id]); a > 0 && len(r.execMs[id]) > 0 {
			ratios = append(ratios, median(r.execMs[id])/a)
		}
	}
	r.add("driver.concurrency_slowdown", median(ratios))
	return nil
}

// ---- exec, plan, sql, qgen, obs (power_serial) ----

func probePower(r *run) error {
	tpls, err := templates(nil)
	if err != nil {
		return err
	}
	qs := r.streams[0]
	stmts := make([]*sql.SelectStmt, len(qs))
	for n := 0; n < probeRepeats; n++ {
		id := r.tr.begin("qgen.Instantiate", "qgen", 0)
		t0 := time.Now()
		for _, t := range tpls {
			if _, err := qgen.Instantiate(t, qgen.StreamSeed(r.cfg.seed, 0, t.ID)); err != nil {
				return err
			}
		}
		r.add("qgen.instantiate_us", time.Since(t0).Seconds()*1e6)
		r.tr.end(id)

		for i, q := range qs {
			if stmts[i], err = sql.Parse(q.text); err != nil {
				return err
			}
		}
		id = r.tr.begin("plan.Decorrelate", "plan", 0)
		t0 = time.Now()
		for _, stmt := range stmts {
			plan.Decorrelate(stmt)
		}
		r.add("plan.decorrelate_us", time.Since(t0).Seconds()*1e6)
		r.tr.end(id)
	}

	// Allocation of execution alone: statements parsed beforehand,
	// nothing else on the heap's account between the two readings.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	warm, err := r.probePass(qs, stmts, nil)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	r.add("exec.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	r.add("exec.allocs_k", float64(m1.Mallocs-m0.Mallocs)/1e3)

	// The same pass the way the driver observes a run: engine counters,
	// operator profiles and a span tree per query.
	reg := obs.NewRegistry()
	r.eng.SetMetrics(reg)
	r.eng.SetProfiling(true)
	fold := &profileFold{selfMs: map[string]float64{}}
	observed, err := r.probePass(qs, stmts, fold)
	r.eng.SetMetrics(nil)
	r.eng.SetProfiling(false)
	if err != nil {
		return err
	}
	r.add("obs.overhead_ratio", observed/warm)
	counters := reg.CounterValues()
	r.add("exec.rows_scanned", float64(counters["exec_rows_scanned"]))
	r.add("exec.hash_build_rows", float64(counters["exec_hash_build_rows"]))
	r.add("exec.batches", float64(counters["exec_batches"]))
	if fold.rowsOut > 0 {
		r.add("exec.rows_scanned_per_row_out", float64(counters["exec_rows_scanned"])/float64(fold.rowsOut))
	}
	r.add("exec.render_ms", fold.renderMs)
	for _, verb := range append(append([]string{}, opVerbs...), "other") {
		r.add("exec.op."+verb+"_ms", fold.selfMs[verb])
	}
	r.add("exec.op.scratch_peak_mb", float64(fold.scratchPeak)/1e6)

	// Two morsel workers on the two cores the harness may use.
	r.eng.SetParallelism(2)
	par2, err := r.probePass(qs, stmts, nil)
	r.eng.SetParallelism(1)
	if err != nil {
		return err
	}
	r.add("exec.par2_speedup", warm/par2)
	return nil
}

// profileFold accumulates what one observed pass yields beyond time.
type profileFold struct {
	selfMs      map[string]float64 // operator verb -> self time
	scratchPeak int64
	rowsOut     int
	renderMs    float64
	rendered    int // bytes of Result.String output
}

// probePass runs every statement once and returns the summed execution
// time in ms. With a fold, each query runs under an obs span tree, its
// operator profile is folded by verb, and its result is rendered.
func (r *run) probePass(qs []query, stmts []*sql.SelectStmt, fold *profileFold) (float64, error) {
	var total float64
	for i, stmt := range stmts {
		ctx := r.ctx
		var root *obs.Span
		if fold != nil {
			root = obs.NewTracer().Root("query", "bench")
			ctx = obs.ContextWithSpan(ctx, root)
		}
		id := r.tr.begin("Engine.Run", "exec", qs[i].id)
		t0 := time.Now()
		res, err := r.eng.RunContext(ctx, stmt)
		total += time.Since(t0).Seconds() * 1e3
		r.tr.end(id)
		root.End()
		if err != nil {
			return 0, fmt.Errorf("q%d: %w", qs[i].id, err)
		}
		if fold == nil {
			continue
		}
		fold.rowsOut += len(res.Rows)
		foldProfile(r.eng.LastTrace().Profile, fold)
		id = r.tr.begin("Result.String", "exec", qs[i].id)
		t0 = time.Now()
		fold.rendered += len(res.String())
		fold.renderMs += time.Since(t0).Seconds() * 1e3
		r.tr.end(id)
	}
	return total, nil
}

// foldProfile adds each operator's self time (its wall time minus its
// children's) to its verb, the first word of the node's name.
func foldProfile(p *obs.OpProfile, fold *profileFold) {
	p.Walk(func(n *obs.OpProfile) {
		self := n.WallNs
		for _, c := range n.Children {
			self -= c.WallNs
		}
		verb, _, _ := strings.Cut(n.Name, " ")
		if !slices.Contains(opVerbs, verb) {
			verb = "other"
		}
		fold.selfMs[verb] += float64(self) / 1e6
		fold.scratchPeak = max(fold.scratchPeak, n.ScratchBytes)
	})
}

// ---- datagen, storage, index (gen_load) ----

func probeGenLoad(r *run) error {
	id := r.tr.begin("GenerateAllParallel", "datagen", 0)
	t0 := time.Now()
	datagen.New(r.sf, r.cfg.seed).GenerateAllParallel()
	par := time.Since(t0).Seconds() * 1e3
	r.tr.end(id)
	r.add("datagen.parallel_speedup", median(r.samples["datagen.gen_ms"])/par)

	// Flat files -> tables, one ReadFlat per table, nothing else live.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	db := storage.NewDB()
	var read time.Duration
	rows := 0
	for _, def := range schema.Tables() {
		n, d, err := r.readFlat(db, def)
		if err != nil {
			return err
		}
		rows += n
		read += d
	}
	runtime.ReadMemStats(&m1)
	bytes, err := dirBytes(r.flatDir())
	if err != nil {
		return err
	}
	r.add("storage.read_ms", read.Seconds()*1e3)
	r.add("storage.read_mb_per_s", float64(bytes)/1e6/read.Seconds())
	r.add("storage.read_rows_per_s", float64(rows)/read.Seconds())
	r.add("storage.read_alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.add("storage.heap_per_raw_byte", (float64(m1.HeapAlloc)-float64(m0.HeapAlloc))/float64(bytes))

	return probeIndexes(r, db)
}

func (r *run) readFlat(db *storage.DB, def *schema.Table) (rows int, d time.Duration, err error) {
	f, err := os.Open(filepath.Join(r.flatDir(), def.Name+".dat"))
	if err != nil {
		return 0, 0, err
	}
	t := storage.NewTable(def)
	id := r.tr.begin("Table.ReadFlat", "storage", 0)
	t0 := time.Now()
	rows, err = t.ReadFlat(f)
	d = time.Since(t0)
	r.tr.end(id)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	db.Put(t)
	return rows, d, err
}

// probeIndexes builds each index kind directly over the columns the
// engine indexes: every dimension's surrogate key and every foreign key
// of the three sales facts.
func probeIndexes(r *run, db *storage.DB) error {
	type column struct {
		vals  []int64
		nulls []bool
	}
	var keys, fks []column
	for _, name := range db.Names() {
		t := db.Table(name)
		if t.Def.Kind == schema.Dimension && len(t.Def.PrimaryKey) == 1 {
			v, n := t.ScanInt64(t.Def.ColumnIndex(t.Def.PrimaryKey[0]))
			keys = append(keys, column{v, n})
		}
	}
	for _, name := range []string{"store_sales", "catalog_sales", "web_sales"} {
		t := db.Table(name)
		for _, fk := range t.Def.ForeignKeys {
			v, n := t.ScanInt64(t.Def.ColumnIndex(fk.Column))
			fks = append(fks, column{v, n})
		}
	}
	perRow := func(metric, name string, cols []column, build func(column)) {
		id := r.tr.begin(name, "index", 0)
		t0 := time.Now()
		rows := 0
		for _, c := range cols {
			build(c)
			rows += len(c.vals)
		}
		r.add(metric, float64(time.Since(t0).Nanoseconds())/float64(rows))
		r.tr.end(id)
	}
	var hashes []*index.HashIndex
	perRow("index.hash_build_ns_per_row", "index.BuildHashIndex", append(append([]column{}, keys...), fks...), func(c column) {
		hashes = append(hashes, index.BuildHashIndex(c.vals, c.nulls))
	})
	perRow("index.bitmap_build_ns_per_row", "index.BuildBitmapIndex", fks, func(c column) { index.BuildBitmapIndex(c.vals, c.nulls) })
	perRow("index.sorted_build_ns_per_row", "index.BuildSortedIndex", fks, func(c column) { index.BuildSortedIndex(c.vals, c.nulls) })

	// Look every foreign-key value up in the index built over its own
	// column: as many lookups as rows, all of them hits.
	id := r.tr.begin("HashIndex.Lookup", "index", 0)
	t0 := time.Now()
	lookups, found := 0, 0
	for i, c := range fks {
		ix := hashes[len(keys)+i]
		for _, v := range c.vals {
			found += len(ix.Lookup(v))
		}
		lookups += len(c.vals)
	}
	r.add("index.hash_lookup_ns", float64(time.Since(t0).Nanoseconds())/float64(lookups))
	r.tr.end(id)
	if found < lookups {
		return fmt.Errorf("hash index: %d rows found by %d lookups of indexed values", found, lookups)
	}

	eng := newEngine(db)
	id = r.tr.begin("warm auxiliary structures", "index", 0)
	t0 = time.Now()
	warmAux(eng)
	r.add("index.warm_ms", time.Since(t0).Seconds()*1e3)
	r.tr.end(id)
	return nil
}

// ---- plan after invalidation (refresh_mixed) ----

// probeRefresh reruns the 12 templates on the state the last cycle left,
// with nothing invalidated in between: the difference to the executions
// that followed a refresh is what rebuilding indexes, statistics and
// plans costs per cycle.
func probeRefresh(r *run) error {
	warm := map[int][]float64{}
	for n := 0; n < probeRepeats; n++ {
		// The substitutions of the latest cycles, like the timed ones.
		qs, err := r.instantiate(mixedTemplates, max(r.cycle-n, 0))
		if err != nil {
			return err
		}
		for _, q := range qs {
			stmt, err := sql.Parse(q.text)
			if err != nil {
				return err
			}
			id := r.tr.begin("Engine.Run", "exec", q.id)
			t0 := time.Now()
			_, err = r.eng.RunContext(r.ctx, stmt)
			warm[q.id] = append(warm[q.id], time.Since(t0).Seconds()*1e3)
			r.tr.end(id)
			if err != nil {
				return err
			}
		}
	}
	var extra float64
	for _, id := range sortedIDs(warm) {
		extra += median(r.execMs[id]) - median(warm[id])
	}
	r.add("plan.invalidated_extra_ms", extra)
	return nil
}

// ---- folding a run into its metrics ----

// value is one reported metric: the value, how many samples it is the
// median (or percentile) of, and their first and third quartile.
type value struct {
	v      float64
	n      int
	q1, q3 float64
}

func valueOf(v float64, samples []float64) value {
	out := value{v: v, n: len(samples)}
	if len(samples) >= 2 {
		out.q1, _, out.q3 = quartiles(samples)
	}
	return out
}

// summarize folds the run's samples into every metric it can report:
// end-to-end and phase metrics always, per-layer ones on the traced run.
func (r *run) summarize() (map[string]value, error) {
	out := map[string]value{}
	for name, s := range r.samples {
		out[name] = valueOf(median(s), s)
	}
	if len(r.queryMs) > 0 {
		out["query_p50_ms"] = valueOf(median(r.queryMs), r.queryMs)
		out["query_tail_ms"] = valueOf(percentile(r.queryMs, r.w.tail), r.queryMs)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out["peak_rss_mb"] = value{v: rss, n: 1}
	if r.tr == nil {
		return out, nil
	}

	reps := float64(r.reps)
	out["sql.parse_us"] = value{v: r.parseUs / reps, n: r.reps}
	if lookups := r.cacheHits + r.cacheMisses; lookups > 0 {
		out["plan.cache_hit_ratio"] = value{v: float64(r.cacheHits) / float64(lookups), n: int(lookups)}
	}
	traced := float64(len(r.samples["traced_wall_s"]))
	out["plan.source_dp"] = value{v: float64(r.planSources["dp"]) / traced, n: int(traced)}
	out["plan.source_cache"] = value{v: float64(r.planSources["cache"]) / traced, n: int(traced)}

	// Execution time per repetition, by the paper's query taxonomy.
	byID := map[int]qgen.Template{}
	for _, t := range queries.All() {
		byID[t.ID] = t
	}
	var total, cold float64
	var perTemplate []float64
	split := map[string]float64{}
	for _, id := range sortedIDs(r.execMs) {
		sum := 0.0
		for _, ms := range r.execMs[id] {
			sum += ms
		}
		total += sum
		perTemplate = append(perTemplate, sum)
		split[execClass(byID[id])] += sum
		if c, ok := r.coldMs[id]; ok {
			cold += c - median(r.execMs[id])
		}
	}
	out["exec.run_ms"] = value{v: total / reps, n: r.reps}
	for class, sum := range split {
		out["exec."+class+"_ms"] = value{v: sum / reps, n: r.reps}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(perTemplate)))
	if total > 0 {
		top := 0.0
		for _, ms := range perTemplate[:min(10, len(perTemplate))] {
			top += ms
		}
		out["exec.top10_share"] = value{v: top / total, n: len(perTemplate)}
	}
	out["plan.cold_extra_ms"] = value{v: cold, n: len(r.coldMs)}

	out["bench.trace_overhead_ratio"] = value{
		v: median(r.samples["traced_wall_s"]) / median(r.samples["untraced_wall_s"]), n: r.reps}
	var self []float64
	for _, byLayer := range r.tr.layerSelf() {
		self = append(self, byLayer["bench"].Seconds()*1e3)
	}
	out["bench.self_ms"] = valueOf(median(self), self)
	for _, m := range phaseMetrics {
		if v, ok := out[m.Name]; ok {
			out["phase."+m.Name] = v
		}
	}
	return out, nil
}

// execClass names the exec.<class>_ms metric a template's time goes to:
// its functional type when it has one, else its schema-partition class.
func execClass(t qgen.Template) string {
	switch {
	case t.Type == qgen.DataMining:
		return "mining"
	case t.Type == qgen.IterativeOLAP:
		return "iterative"
	}
	switch qgen.ClassOf(t) {
	case qgen.Reporting:
		return "reporting"
	case qgen.Hybrid:
		return "hybrid"
	}
	return "adhoc"
}

// layerTable renders the traced repetitions' self time by layer, with
// each layer's share of the repetition: the shares add up to one.
func (r *run) layerTable() string {
	byLayer := map[string][]float64{}
	var walls []float64
	for _, self := range r.tr.layerSelf() {
		wall := 0.0
		for layer, d := range self {
			byLayer[layer] = append(byLayer[layer], d.Seconds()*1e3)
			wall += d.Seconds() * 1e3
		}
		walls = append(walls, wall)
	}
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	var sb strings.Builder
	fmt.Fprintf(&sb, "self time by layer, median of %d traced repetitions (%.1f ms each):\n", len(walls), median(walls))
	for _, l := range layers {
		fmt.Fprintf(&sb, "  %-12s %12.3f ms %6.1f%%\n", l, median(byLayer[l]), 100*median(byLayer[l])/median(walls))
	}
	return sb.String()
}
