// Package exec implements the query executor: binding of parsed SQL
// against the storage catalog, the two physical join strategies of §2.1
// (hash-join pipeline and bitmap star transformation, chosen by package
// plan), hash aggregation, windowed aggregates, sorting and set
// operations. The engine is safe for concurrent queries, which the
// execution rules require (§5.2: multiple concurrent query streams).
package exec

import (
	"fmt"
	"sync"

	"tpcds/internal/index"
	"tpcds/internal/plan"
	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

// Engine executes SQL against a storage database.
type Engine struct {
	db   *storage.DB
	mode plan.Mode

	// parallelism is the configured worker count for morsel-driven
	// execution: 0 means runtime.NumCPU(), 1 forces the serial path.
	// morselRows overrides the scan morsel size (tests and benchmarks
	// shrink it so development-scale tables still split into morsels).
	parallelism int
	morselRows  int

	// vectorized compiles local predicates into selection-vector
	// kernels over columnar batches; off evaluates them row-at-a-time
	// through bexpr.eval, the differential oracle for the kernels.
	// batchRows overrides the batch size (0 = defaultBatchRows).
	vectorized bool
	batchRows  int

	// mu guards the lazily built caches below (hashIdx, bmIdx,
	// statsCache) plus lastDecision/lastTrace. Concurrent benchmark
	// streams race to build the same index; mu makes the first build
	// win and the rest reuse it. Every acquisition is mu.Lock() paired
	// with an immediate defer mu.Unlock() in the same function, so no
	// lock is ever held across a channel operation or query execution —
	// the invariant lockcheck proves.
	mu         sync.Mutex
	hashIdx    map[string]cachedHashIndex   // "table.column" -> index
	bmIdx      map[string]cachedBitmapIndex // "table.column" -> index
	statsCache map[statsKey]colStats

	// planner selects the join planner: plan.CostBased (the default)
	// searches join orders against the cost model and caches plans;
	// plan.Greedy is the original fixed heuristic, kept as the
	// differential baseline. Results are bit-identical either way.
	planner plan.PlannerKind

	// planCache memoizes cost-based join plans keyed by statement shape
	// + planning inputs; it has its own internal lock (never taken while
	// holding mu).
	planCache *plan.Cache

	// useHeuristicsOnly disables statistics-based selectivity (the
	// stats-vs-heuristics ablation).
	useHeuristicsOnly bool

	// em holds resolved metric handles when a registry is installed via
	// SetMetrics; nil disables executor metrics at the cost of one nil
	// check per recording site.
	em *execMetrics

	// profiling enables per-operator runtime accounting (EXPLAIN
	// ANALYZE): every query builds a profile tree mirroring the plan
	// shape, surfaced as Trace.Profile. Off by default; the disabled
	// path allocates nothing.
	profiling bool

	// queryHook, when set, runs at the start of every Query/QueryContext
	// call inside the per-query recover scope — the fault-injection
	// point for robustness tests (a hook panic becomes that query's
	// error, never a process crash).
	queryHook func(query string)

	// Explain hooks: the most recent strategy decision and execution
	// trace, for tests and EXPLAIN-style reporting. Guarded by mu.
	lastDecision plan.Decision
	lastTrace    Trace
}

// cachedHashIndex is one hash-index cache entry together with the
// identity and epoch of the table contents it was built from.
type cachedHashIndex struct {
	ix      *index.HashIndex
	tableID uint64
	epoch   uint64
}

// cachedBitmapIndex is the bitmap-index analogue of cachedHashIndex.
type cachedBitmapIndex struct {
	ix      *index.BitmapIndex
	tableID uint64
	epoch   uint64
}

// New returns an engine over db using automatic strategy selection.
func New(db *storage.DB) *Engine {
	return &Engine{
		db:         db,
		vectorized: true,
		hashIdx:    map[string]cachedHashIndex{},
		bmIdx:      map[string]cachedBitmapIndex{},
		statsCache: map[statsKey]colStats{},
		planner:    plan.CostBased,
		planCache:  plan.NewCache(),
	}
}

// SetMode constrains the physical strategy (used by the ablation
// benchmarks). Not safe to call concurrently with queries.
func (e *Engine) SetMode(m plan.Mode) { e.mode = m }

// Mode returns the current strategy mode.
func (e *Engine) Mode() plan.Mode { return e.mode }

// SetParallelism configures the morsel worker count: 0 (the default)
// resolves to runtime.NumCPU(), 1 forces serial execution, n > 1 uses n
// workers. Results are bit-identical at every setting. Not safe to call
// concurrently with queries.
func (e *Engine) SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	e.parallelism = n
}

// Parallelism returns the configured (unresolved) parallelism knob.
func (e *Engine) Parallelism() int { return e.parallelism }

// SetMorselSize overrides the scan morsel row count (test/benchmark
// hook: development-scale tables never reach the production 64K-row
// morsels). n <= 0 restores the default. Not safe to call concurrently
// with queries.
func (e *Engine) SetMorselSize(n int) {
	if n < 0 {
		n = 0
	}
	e.morselRows = n
}

// SetVectorized toggles the predicate kernels (on by default). With it
// off every local predicate is evaluated row-at-a-time — the
// differential oracle the kernels are tested against — while scans and
// joins still pass the same row-id vectors. Results are bit-identical
// either way. Not safe to call concurrently with queries.
func (e *Engine) SetVectorized(on bool) { e.vectorized = on }

// Vectorized reports whether batch execution is enabled.
func (e *Engine) Vectorized() bool { return e.vectorized }

// SetBatchSize overrides the vectorized batch row count (default 1024;
// tests shrink it to stress batch boundaries). n <= 0 restores the
// default. Not safe to call concurrently with queries.
func (e *Engine) SetBatchSize(n int) {
	if n < 0 {
		n = 0
	}
	e.batchRows = n
}

// BatchSize returns the effective vectorized batch row count.
func (e *Engine) BatchSize() int { return e.batchSize() }

// SetPlanner selects the join planner: plan.CostBased (the default)
// estimates costs, searches join orders and caches plans; plan.Greedy
// is the original fixed heuristic, kept as the differential baseline.
// Results are bit-identical under either planner. Not safe to call
// concurrently with queries.
func (e *Engine) SetPlanner(k plan.PlannerKind) { e.planner = k }

// Planner returns the active join planner kind.
func (e *Engine) Planner() plan.PlannerKind { return e.planner }

// PlanCacheStats returns the cost planner's plan-cache hit/miss
// counters (both zero under the greedy planner).
func (e *Engine) PlanCacheStats() (hits, misses int64) { return e.planCache.Stats() }

// SetUseStatistics toggles statistics-based selectivity estimation (on
// by default); with it off the optimizer falls back to fixed textbook
// heuristics — the stats-vs-heuristics ablation. Not safe to call
// concurrently with queries.
func (e *Engine) SetUseStatistics(on bool) { e.useHeuristicsOnly = !on }

// SetProfiling toggles per-operator runtime accounting. With it on,
// every query records actual rows in/out, batches, morsels, wall time
// and peak scratch bytes per operator into Trace.Profile (the EXPLAIN
// ANALYZE surface); estimates from the cost planner ride along so the
// profile reports per-operator q-error. Profiling never changes
// results (the differential tests run with it on to prove it). Not
// safe to call concurrently with queries.
func (e *Engine) SetProfiling(on bool) { e.profiling = on }

// Profiling reports whether per-operator accounting is enabled.
func (e *Engine) Profiling() bool { return e.profiling }

// SetQueryHook installs a hook invoked at the start of every query
// inside the per-query recover scope. It exists for fault injection:
// robustness tests make it panic or block to prove one query's failure
// stays confined to that query. Not safe to call concurrently with
// queries; nil removes the hook.
func (e *Engine) SetQueryHook(h func(query string)) { e.queryHook = h }

// DB exposes the underlying database (used by data maintenance).
func (e *Engine) DB() *storage.DB { return e.db }

// LastDecision returns the optimizer decision of the most recent star-
// eligible query (diagnostic).
func (e *Engine) LastDecision() plan.Decision {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastDecision
}

func (e *Engine) setDecision(d plan.Decision) {
	e.mu.Lock()
	e.lastDecision = d
	e.mu.Unlock()
}

// InvalidateIndexes drops cached indexes for a table; the data
// maintenance workload calls this after modifying a table ("the data
// maintenance run measures the system's ability ... to maintain
// auxiliary data structures", §5.2 — rebuilding on next use is our
// maintenance model).
func (e *Engine) InvalidateIndexes(table string) {
	e.mu.Lock()
	prefix := table + "."
	for k := range e.hashIdx {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			delete(e.hashIdx, k)
		}
	}
	for k := range e.bmIdx {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			delete(e.bmIdx, k)
		}
	}
	for k := range e.statsCache {
		if k.table == table {
			delete(e.statsCache, k)
		}
	}
	e.mu.Unlock()
	// Cached join plans embed estimates derived from the table's old
	// statistics; drop them so the next query replans. (The epoch check
	// already forces index/stats re-gather; this keeps the plan cache
	// from serving plans shaped by stale estimates.)
	e.planCache.InvalidateTable(table)
}

// hashIndex returns the hash index on table.column and whether this
// call had to build it. Freshness is (instance id, epoch), not row
// count: a same-size reload or in-place update must rebuild.
func (e *Engine) hashIndex(t *storage.Table, col int) (ix *index.HashIndex, built bool) {
	key := t.Def.Name + "." + t.Def.Columns[col].Name
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, ok := e.hashIdx[key]; ok && c.tableID == t.ID() && c.epoch == t.Epoch() {
		return c.ix, false
	}
	vals, nulls := t.ScanInt64(col)
	ix = index.BuildHashIndex(vals, nulls)
	e.hashIdx[key] = cachedHashIndex{ix: ix, tableID: t.ID(), epoch: t.Epoch()}
	return ix, true
}

// bitmapIndex returns (building if needed) a bitmap index on
// table.column, with the same (instance id, epoch) freshness rule as
// hashIndex.
func (e *Engine) bitmapIndex(t *storage.Table, col int) *index.BitmapIndex {
	key := t.Def.Name + "." + t.Def.Columns[col].Name
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, ok := e.bmIdx[key]; ok && c.tableID == t.ID() && c.epoch == t.Epoch() {
		return c.ix
	}
	vals, nulls := t.ScanInt64(col)
	ix := index.BuildBitmapIndex(vals, nulls)
	e.bmIdx[key] = cachedBitmapIndex{ix: ix, tableID: t.ID(), epoch: t.Epoch()}
	return ix
}

// WarmHashIndex eagerly builds the hash index on table.column (part of
// the load test's "create auxiliary data structures" step, §5.2). It is
// a no-op for unknown tables/columns or non-integer columns.
func (e *Engine) WarmHashIndex(table, column string) {
	t := e.db.Table(table)
	if t == nil {
		return
	}
	ci := t.Def.ColumnIndex(column)
	if ci < 0 {
		return
	}
	switch t.Def.Columns[ci].Type {
	case schema.Identifier, schema.Integer, schema.Date:
		e.hashIndex(t, ci)
	}
}

// WarmBitmapIndex eagerly builds the bitmap index on table.column.
func (e *Engine) WarmBitmapIndex(table, column string) {
	t := e.db.Table(table)
	if t == nil {
		return
	}
	ci := t.Def.ColumnIndex(column)
	if ci < 0 {
		return
	}
	switch t.Def.Columns[ci].Type {
	case schema.Identifier, schema.Integer, schema.Date:
		e.bitmapIndex(t, ci)
	}
}

// Result is a fully materialized query result.
type Result struct {
	Columns []string
	Rows    [][]storage.Value
}

// String renders the result as an aligned text table (for the CLI and
// examples).
func (r *Result) String() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	//lint:ignore cancelcheck rendering runs after the query finished; no qctx is in scope
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			if v.IsNull() {
				s = "NULL"
			}
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var sb []byte
	appendRow := func(fields []string) {
		for i, f := range fields {
			if i > 0 {
				sb = append(sb, ' ', '|', ' ')
			}
			sb = append(sb, f...)
			for p := len(f); p < widths[i]; p++ {
				sb = append(sb, ' ')
			}
		}
		sb = append(sb, '\n')
	}
	appendRow(r.Columns)
	sep := make([]string, len(r.Columns))
	for i := range sep {
		for p := 0; p < widths[i]; p++ {
			sep[i] += "-"
		}
	}
	appendRow(sep)
	for _, row := range cells {
		appendRow(row)
	}
	return string(sb)
}

// queryError wraps binder and executor errors with the failing SQL.
func queryError(q string, err error) error {
	if len(q) > 120 {
		q = q[:117] + "..."
	}
	return fmt.Errorf("exec: %w (query: %s)", err, q)
}
