package exec

import (
	"context"

	"tpcds/internal/obs"
	"tpcds/internal/storage"
)

// qctx carries the per-query execution state that is not part of the
// binder's name-resolution job: the cancellation context, the
// operator phase currently running (for error attribution when an
// internal invariant violation is recovered at the query's exit), and
// what the query's observers receive when it ends.
//
// A query runs on its calling goroutine, so every field is that
// goroutine's alone.
//
// Cancellation is cooperative. Operator loops call tick() once per row
// (an int increment; the context is polled every tickInterval rows) or
// checkNow() once per batch. When the context is done, they raise a
// cancelPanic, which the recover at the query's exit converts into
// the context's error — the same mechanism that turns internal panics
// into per-query errors, so cancellation needs no error plumbing
// through the operator tree.
type qctx struct {
	ctx   context.Context
	phase string // current operator
	ticks int    // poll counter

	// prof is the root of the query's operator tree, the one
	// per-operator record: EXPLAIN ANALYZE reads it, and at the query's
	// end it is published as the exec spans of qspan, the query span the
	// caller (driver or CLI) put in the context. prof is nil when the
	// query is not observed (no span, profiling off), and every operator
	// helper is then a free no-op. pcur is the innermost open node.
	// profiled reports SetProfiling(true): the tree is then also the
	// trace's Profile.
	qspan    *obs.Span
	prof     *obs.OpNode
	pcur     *obs.OpNode
	profiled bool

	// The engine counters of this query, added to the installed registry
	// once, when the query ends (see SetMetrics).
	rowsScanned, buildRows, batches int
	planCacheHits, planCacheMisses  int

	// cse memoizes CTE and subquery tables within this query
	// (Engine.materialize). Tables are shared read-only; the query
	// lifetime bounds the memo.
	cse map[string]*storage.Table
	// cseHits and decorrelated feed the query's trace (cseHits its
	// counter too): memo reuses and IN-subquery predicates rewritten to
	// joins.
	cseHits      int
	decorrelated int
}

// tickInterval is the row-loop polling granularity: a context check
// every 1024 rows bounds cancellation latency without measurable
// per-row cost.
const tickInterval = 1024

// cancelPanic is the sentinel raised when the query's context is done.
// It carries the context error (context.Canceled or
// context.DeadlineExceeded) to the boundary recover.
type cancelPanic struct{ err error }

func (e *Engine) newQctx(ctx context.Context) *qctx {
	if ctx == nil {
		// nil means the caller came through a context-free wrapper; an
		// always-live root is the correct "no deadline" semantics there.
		//lint:ignore ctxflow nil-ctx fallback for the documented context-free wrappers; never overrides a caller-supplied ctx
		ctx = context.Background()
	}
	q := &qctx{ctx: ctx, phase: "parse", qspan: obs.SpanFromContext(ctx), profiled: e.profiling, cse: map[string]*storage.Table{}}
	if q.profiled || q.qspan != nil {
		q.prof = obs.NewProfile("query")
	}
	return q
}

// setPhase records the operator about to run.
func (q *qctx) setPhase(p string) {
	if q == nil {
		return
	}
	q.phase = p
}

// phaseName returns the phase for error messages.
func (q *qctx) phaseName() string {
	if q == nil || q.phase == "" {
		return "exec"
	}
	return q.phase
}

// checkNow raises cancelPanic when the query's context is cancelled or
// expired.
func (q *qctx) checkNow() {
	if q == nil || q.ctx == nil {
		return
	}
	select {
	case <-q.ctx.Done():
		panic(cancelPanic{q.ctx.Err()})
	default:
	}
}

// tick is the row-loop cancellation point: every tickInterval calls it
// polls the context.
func (q *qctx) tick() {
	if q == nil {
		return
	}
	q.ticks++
	if q.ticks%tickInterval == 0 {
		q.checkNow()
	}
}

// startOp opens an operator node ("scan store_sales", "build item")
// nested under the innermost open one and makes it current. On an
// unobserved query this is a nil check and nothing else: the name is
// assembled only on the observed path, so the hot path stays
// allocation-free.
func (q *qctx) startOp(verb, detail string) {
	if q == nil || q.prof == nil {
		return
	}
	name := verb
	if detail != "" {
		name = verb + " " + detail
	}
	node := q.pcur
	if node == nil {
		node = q.prof
	}
	q.pcur = node.StartChild(name)
}

// endOp ends the current operator node and makes its parent current
// (startOp/endOp calls are strictly paired).
func (q *qctx) endOp() {
	if q == nil || q.pcur == nil {
		return
	}
	q.pcur.End()
	if p := q.pcur.Parent(); p != q.prof {
		q.pcur = p
	} else {
		q.pcur = nil
	}
}

// profiling reports whether this query's trace carries its profile.
func (q *qctx) profiling() bool { return q != nil && q.profiled }

// opRowsIn records rows entering the current operator.
func (q *qctx) opRowsIn(n int64) {
	if q != nil {
		q.pcur.AddRowsIn(n)
	}
}

// opRowsOut records rows leaving the current operator.
func (q *qctx) opRowsOut(n int64) {
	if q != nil {
		q.pcur.AddRowsOut(n)
	}
}

// growScratch / shrinkScratch account transient operator working
// memory (selection vectors, hash tables, group arrays) against the
// current profile node.
func (q *qctx) growScratch(b int64) {
	if q == nil {
		return
	}
	q.pcur.GrowScratch(b)
}

func (q *qctx) shrinkScratch(b int64) {
	if q == nil {
		return
	}
	q.pcur.ShrinkScratch(b)
}

// profile snapshots the query's profile tree (nil unless profiling is
// on).
func (q *qctx) profile() *obs.OpProfile {
	if !q.profiling() {
		return nil
	}
	return q.prof.Snapshot()
}

// observe is the query's one observation point, run as it ends —
// failed or not: the operator tree becomes the query span's exec
// spans, and each counter is added to reg once.
func (q *qctx) observe(reg *obs.Registry) {
	q.qspan.PublishOps(q.prof, "exec")
	if reg == nil {
		return
	}
	for _, c := range [...]struct {
		name string
		n    int
	}{
		{"exec_rows_scanned", q.rowsScanned},
		{"exec_hash_build_rows", q.buildRows},
		{"exec_batches", q.batches},
		{"exec_plan_cache_hits", q.planCacheHits},
		{"exec_plan_cache_misses", q.planCacheMisses},
		{"exec_cse_hits", q.cseHits},
	} {
		reg.Counter(c.name).Add(int64(c.n))
	}
}
