package main

// metricDef declares one metric the harness emits. The same tables are
// the source of the printed report, of the final JSON line, and of the
// round-trip test against BENCHMARK.json.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which the metric may
	// worsen before a change counts as a regression. Zero for per-layer
	// metrics, which explain a move and never gate one.
	Bound float64
}

// endToEnd are the quantities a user of the kit sees, defined on every
// workload (the contract prints each on each; none is ever zero).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_tail_ms", "ms", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// phaseMetrics are the paper's phase quantities, which exist on one
// workload only (Figure 11 phases and QphDS on full_test_2s, the dsdgen
// and load-test views on gen_load, T_DM on refresh_mixed). They are
// printed by every run of their workload, with the bound the issue gave
// them, and enter the JSON line of the traced run as "phase.<name>".
var phaseMetrics = []metricDef{
	{"qphds", "1/h", "higher", 0.10},
	{"t_load_s", "s", "lower", 0.10},
	{"t_qr1_s", "s", "lower", 0.10},
	{"t_qr2_s", "s", "lower", 0.10},
	{"gen_s", "s", "lower", 0.10},
	{"load_s", "s", "lower", 0.10},
	{"dm_s", "s", "lower", 0.10},
}

// opVerbs are the operator verbs of the engine's profile tree
// (qctx.startOp); anything else folds into "other".
var opVerbs = []string{"bind", "plan", "scan", "build", "probe", "stream", "star",
	"aggregate", "project", "sort", "subquery", "cte"}

// maintenanceOps are the 12 data maintenance operations in the order
// maintenance.Run applies them.
var maintenanceOps = []string{
	"update_history_dims", "update_nonhistory_dims",
	"delete_store", "delete_catalog", "delete_web",
	"insert_store_sales", "insert_catalog_sales", "insert_web_sales",
	"insert_store_returns", "insert_catalog_returns", "insert_web_returns",
	"refresh_inventory",
}

// perLayer lists every per-layer metric of the traced run, layer =
// module name. A workload that never calls a layer reports 0 for it.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	out := []metricDef{
		lo("datagen.gen_ms", "ms"), hi("datagen.rows_per_s", "1/s"), lo("datagen.alloc_mb", "MB"),
		hi("datagen.parallel_speedup", "x"),

		lo("storage.write_ms", "ms"), hi("storage.write_mb_per_s", "MB/s"),
		lo("storage.read_ms", "ms"), hi("storage.read_mb_per_s", "MB/s"), hi("storage.read_rows_per_s", "1/s"),
		lo("storage.read_alloc_mb", "MB"), lo("storage.heap_per_raw_byte", "B/B"),

		lo("index.hash_build_ns_per_row", "ns"), lo("index.bitmap_build_ns_per_row", "ns"),
		lo("index.sorted_build_ns_per_row", "ns"), lo("index.hash_lookup_ns", "ns"), lo("index.warm_ms", "ms"),

		lo("qgen.instantiate_us", "us"), lo("sql.parse_us", "us"),

		hi("plan.cache_hit_ratio", "ratio"), lo("plan.source_dp", "count"), hi("plan.source_cache", "count"),
		lo("plan.decorrelate_us", "us"), lo("plan.cold_extra_ms", "ms"), lo("plan.invalidated_extra_ms", "ms"),

		lo("exec.run_ms", "ms"), lo("exec.alloc_mb", "MB"), lo("exec.allocs_k", "count"),
		lo("exec.adhoc_ms", "ms"), lo("exec.reporting_ms", "ms"), lo("exec.hybrid_ms", "ms"),
		lo("exec.iterative_ms", "ms"), lo("exec.mining_ms", "ms"), lo("exec.top10_share", "ratio"),
		lo("exec.rows_scanned", "count"), lo("exec.hash_build_rows", "count"), lo("exec.batches", "count"),
		lo("exec.rows_scanned_per_row_out", "ratio"), lo("exec.render_ms", "ms"), hi("exec.par2_speedup", "x"),
	}
	for _, v := range append(append([]string{}, opVerbs...), "other") {
		out = append(out, lo("exec.op."+v+"_ms", "ms"))
	}
	out = append(out, lo("exec.op.scratch_peak_mb", "MB"),
		lo("maintenance.gen_refresh_ms", "ms"), hi("maintenance.rows_per_s", "1/s"))
	for _, op := range maintenanceOps {
		out = append(out, lo("maintenance."+op+"_ms", "ms"))
	}
	out = append(out,
		lo("driver.stream_overhead_ratio", "ratio"), lo("driver.stream_skew", "ratio"),
		lo("driver.concurrency_slowdown", "x"), lo("driver.dm_ms", "ms"),
		lo("obs.overhead_ratio", "ratio"), lo("bench.trace_overhead_ratio", "ratio"), lo("bench.self_ms", "ms"),
		lo("runtime.gc_cycles", "count"), lo("runtime.gc_pause_ms", "ms"),
	)
	for _, m := range phaseMetrics {
		out = append(out, metricDef{Name: "phase." + m.Name, Unit: m.Unit, Better: m.Better})
	}
	return out
}
