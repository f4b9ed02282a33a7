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

	// mu guards aux and lastTrace. Concurrent benchmark streams race to
	// build the same structure; mu makes the first build win and the
	// rest reuse it. Every acquisition is mu.Lock() paired with an
	// immediate defer mu.Unlock() in the same function, so no lock is
	// ever held across a blocking channel operation or query execution —
	// the invariant lockcheck proves. (A statistics build polls its
	// query's context without blocking; a cancellation panics out
	// through the deferred unlock and publishes nothing.)
	mu  sync.Mutex
	aux map[auxKey]auxEntry

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

// auxKind names a kind of derived structure the engine keeps per
// column of a table.
type auxKind uint8

const (
	auxHash     auxKind = iota // surrogate-key hash index (*index.HashIndex)
	auxPostings                // fact foreign-key postings (*index.BitmapIndex)
	auxValues                  // value postings (*index.BitmapIndex; nil: too many values)
	auxStats                   // column statistics (colStats)
)

// auxKey identifies one cached structure. A struct key cannot collide
// the way a concatenated "table.column" string can.
type auxKey struct {
	kind  auxKind
	table string
	col   int
}

// auxEntry is one cached structure stamped with the instance id and
// epoch of the table contents it was derived from.
type auxEntry struct {
	v         any
	id, epoch uint64
}

// New returns an engine over db: cost planning over gathered
// statistics, with the strategy chosen by the cost model.
func New(db *storage.DB) *Engine {
	return &Engine{
		db:        db,
		aux:       map[auxKey]auxEntry{},
		planCache: plan.NewCache(),
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
// still calls it; the [benchmark] change that deletes the harness's
// no-op parallelism settings removes those calls and this method.
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

// cached returns the structure of the given kind on column col of t,
// calling build when the cache holds none derived from t's current
// instance id and epoch, and reports whether it built. This is the one
// freshness rule of every derived structure the engine keeps: only the
// table's own mutators (Append, Writer, Update, SetValue, Delete, Adopt)
// make one stale, by bumping the epoch, and the next use rebuilds it —
// the data maintenance run's "maintain auxiliary data structures" cost
// (§5.2) is paid there. A row count is no freshness test: a same-size
// reload or in-place update must rebuild. The build runs under mu, so
// concurrent first uses build once and publish once.
func cached[T any](e *Engine, kind auxKind, t *storage.Table, col int, build func() T) (v T, built bool) {
	key := auxKey{kind: kind, table: t.Def.Name, col: col}
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, ok := e.aux[key]; ok && c.id == t.ID() && c.epoch == t.Epoch() {
		return c.v.(T), false
	}
	v = build()
	e.aux[key] = auxEntry{v: v, id: t.ID(), epoch: t.Epoch()}
	return v, true
}

// hashIndex returns the hash index on table.column and whether this
// call built it.
func (e *Engine) hashIndex(t *storage.Table, col int) (*index.HashIndex, bool) {
	return cached(e, auxHash, t, col, func() *index.HashIndex {
		return index.BuildHashIndex(t.ScanInt64(col))
	})
}

// bitmapIndex returns the fact postings on table.column.
func (e *Engine) bitmapIndex(t *storage.Table, col int) *index.BitmapIndex {
	ix, _ := cached(e, auxPostings, t, col, func() *index.BitmapIndex {
		return index.BuildBitmapIndex(t.ScanInt64(col))
	})
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
// build it: 0 when the cache answered or no row needed reading. A nil
// answer is cached too.
func (e *Engine) valueIndex(t *storage.Table, col int) (ix *index.BitmapIndex, read int) {
	ix, _ = cached(e, auxValues, t, col, func() *index.BitmapIndex {
		kind, ints, _, _, codes, dict, nulls := t.Col(col).Raw()
		switch {
		case codes != nil && len(dict) <= maxBitmapValues:
			read = len(codes)
			return index.BuildCodeIndex(codes, nulls, len(dict))
		case kind == storage.KindInt || kind == storage.KindDate:
			read = len(ints)
			return index.BuildBitmapIndexUpTo(ints, nulls, maxBitmapValues)
		}
		return nil
	})
	return ix, read
}

// WarmHashIndex eagerly builds the hash index on table.column (part of
// the load test's "create auxiliary data structures" step, §5.2). It is
// a no-op for unknown tables/columns or non-integer columns.
func (e *Engine) WarmHashIndex(table, column string) { e.warm(auxHash, table, column) }

// WarmBitmapIndex eagerly builds the fact postings on table.column, on
// the same terms as WarmHashIndex.
func (e *Engine) WarmBitmapIndex(table, column string) { e.warm(auxPostings, table, column) }

// warm builds the index of the given kind on table.column.
func (e *Engine) warm(kind auxKind, table, column string) {
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
		if kind == auxHash {
			e.hashIndex(t, ci)
		} else {
			e.bitmapIndex(t, ci)
		}
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
