// Package exec implements the query executor: binding of parsed SQL
// against the storage catalog, the two physical join strategies of §2.1
// (hash-join pipeline and bitmap star transformation, chosen by the
// engine's cost model in package plan), hash aggregation, windowed
// aggregates, sorting and set operations. Each query runs on its calling
// goroutine; the engine is safe for concurrent queries, which the
// execution rules require (§5.2: multiple concurrent query streams).
package exec

import (
	"fmt"
	"strings"
	"sync"

	"tpcds/internal/index"
	"tpcds/internal/obs"
	"tpcds/internal/plan"
	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

// Engine executes SQL against a storage database.
type Engine struct {
	db *storage.DB

	// mode forces a physical strategy for the tests that compare the
	// two (SetMode); production runs plan.Auto.
	mode plan.Mode

	// reference selects the rewrite-free configuration the tests
	// compare production against: the greedy join order, no
	// Decorrelate, no CSE memo, no join-order search or plan cache, and
	// hash joins only. Only internal/exec tests set it.
	reference bool

	// vecHook, set by tests only, sees every batch of every vector
	// program node (batch.go).
	vecHook func(b *binder, e bexpr, fr *frame, sel []int32, v view, tri []int8)

	// mu guards the lazily built caches below (hashIdx, bmIdx, valIdx,
	// statsCache) plus lastTrace. Concurrent benchmark
	// streams race to build the same index; mu makes the first build
	// win and the rest reuse it. Every acquisition is mu.Lock() paired
	// with an immediate defer mu.Unlock() in the same function, so no
	// lock is ever held across a channel operation or query execution —
	// the invariant lockcheck proves.
	mu         sync.Mutex
	hashIdx    map[string]cachedHashIndex   // "table.column" -> index
	bmIdx      map[string]cachedBitmapIndex // "table.column" -> index
	valIdx     map[string]cachedBitmapIndex // "table.column" -> value bitmaps, nil ix: the column has too many values
	statsCache map[statsKey]colStats

	// planCache memoizes cost-based join plans keyed by statement shape
	// + planning inputs; it has its own internal lock (never taken while
	// holding mu).
	planCache *plan.Cache

	// metrics is the registry SetMetrics installed; nil disables the
	// executor counters.
	metrics *obs.Registry

	// profiling enables per-operator runtime accounting (EXPLAIN
	// ANALYZE): every query builds a profile tree mirroring the plan
	// shape, surfaced as Trace.Profile. Off by default; the disabled
	// path allocates nothing.
	profiling bool

	// queryHook, when set, runs at the start of every query inside the
	// per-query recover scope — the fault-injection point for
	// robustness tests (a hook panic becomes that query's error, never
	// a process crash).
	queryHook func(query string)

	// lastTrace is the most recent query's execution trace, for tests
	// and EXPLAIN-style reporting. Guarded by mu.
	lastTrace Trace
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

// New returns an engine over db: cost planning over gathered
// statistics, with the strategy chosen by the cost model.
func New(db *storage.DB) *Engine {
	return &Engine{
		db:         db,
		hashIdx:    map[string]cachedHashIndex{},
		bmIdx:      map[string]cachedBitmapIndex{},
		valIdx:     map[string]cachedBitmapIndex{},
		statsCache: map[statsKey]colStats{},
		planCache:  plan.NewCache(),
	}
}

// SetMode forces a physical strategy. It is the reference hook of the
// tests that hold the star transformation and the hash pipeline to
// bit-identical results (internal/exec, internal/maintenance) and of
// the star-vs-hash ablation benchmark; production engines keep
// plan.Auto. Not safe to call concurrently with queries.
func (e *Engine) SetMode(m plan.Mode) { e.mode = m }

// SetParallelism does nothing: every query runs on its calling
// goroutine, and concurrency comes from concurrent queries (§5.2's
// streams).
//
// Deprecated: kept only because the benchmark harness under bench/
// still calls it; the [benchmark] change of ROADMAP item 2(b) removes
// those calls and this method.
func (e *Engine) SetParallelism(int) {}

// PlanCacheStats returns the plan cache's hit/miss counters.
func (e *Engine) PlanCacheStats() (hits, misses int64) { return e.planCache.Stats() }

// SetProfiling toggles per-operator runtime accounting. With it on,
// every query records actual rows in/out, batches, wall time and peak
// scratch bytes per operator into Trace.Profile (the EXPLAIN ANALYZE
// surface). Profiling never changes results (the differential tests
// run with it on to prove it). Not safe to call concurrently with
// queries.
func (e *Engine) SetProfiling(on bool) { e.profiling = on }

// SetMetrics installs a metrics registry on the engine: every query,
// failed or not, adds its rows scanned, hash-build rows, batches,
// plan-cache hits and misses and CSE hits to the exec_* counters once
// as it ends. nil removes the instrumentation. Not safe to call
// concurrently with queries.
func (e *Engine) SetMetrics(reg *obs.Registry) { e.metrics = reg }

// SetQueryHook installs a hook invoked at the start of every query
// inside the per-query recover scope, with the query's SQL text (empty
// for a statement RunContext received parsed). It exists for fault
// injection: robustness tests make it panic or block to prove one
// query's failure stays confined to that query. Not safe to call
// concurrently with queries; nil removes the hook.
func (e *Engine) SetQueryHook(h func(query string)) { e.queryHook = h }

// DB exposes the underlying database (used by data maintenance).
func (e *Engine) DB() *storage.DB { return e.db }

// InvalidateIndexes drops cached indexes for a table; the data
// maintenance workload calls this after modifying a table ("the data
// maintenance run measures the system's ability ... to maintain
// auxiliary data structures", §5.2 — rebuilding on next use is our
// maintenance model).
func (e *Engine) InvalidateIndexes(table string) {
	e.mu.Lock()
	prefix := table + "."
	for k := range e.hashIdx {
		if strings.HasPrefix(k, prefix) {
			delete(e.hashIdx, k)
		}
	}
	for _, m := range []map[string]cachedBitmapIndex{e.bmIdx, e.valIdx} {
		for k := range m {
			if strings.HasPrefix(k, prefix) {
				delete(m, k)
			}
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

// maxBitmapValues is the most distinct values a column may hold to be
// answered from value bitmaps (DESIGN.md, "One selection per table and
// query").
const maxBitmapValues = 256

// valueIndex returns the value-bitmap index on table.column — keyed by
// value for an integer-class column, by dictionary code for a dictionary
// column — or nil when the column is neither or holds more than
// maxBitmapValues distinct values (a dictionary column: has more
// dictionary entries). read is the number of rows this call read to
// build it: 0 when the cache answered or no row needed reading. The
// freshness rule is hashIndex's, and a nil answer is cached too.
func (e *Engine) valueIndex(t *storage.Table, col int) (ix *index.BitmapIndex, read int) {
	key := t.Def.Name + "." + t.Def.Columns[col].Name
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, ok := e.valIdx[key]; ok && c.tableID == t.ID() && c.epoch == t.Epoch() {
		return c.ix, 0
	}
	kind, ints, _, _, codes, dict, nulls := t.Col(col).Raw()
	switch {
	case codes != nil && len(dict) <= maxBitmapValues:
		ix, read = index.BuildCodeIndex(codes, nulls, len(dict)), len(codes)
	case kind == storage.KindInt || kind == storage.KindDate:
		ix, read = index.BuildBitmapIndexUpTo(ints, nulls, maxBitmapValues), len(ints)
	}
	e.valIdx[key] = cachedBitmapIndex{ix: ix, tableID: t.ID(), epoch: t.Epoch()}
	return ix, read
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
	if q == "" {
		return fmt.Errorf("exec: %w", err)
	}
	if len(q) > 120 {
		q = q[:117] + "..."
	}
	return fmt.Errorf("exec: %w (query: %s)", err, q)
}
