package exec

import (
	"context"

	"tpcds/internal/obs"
	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

// qctx carries the per-query execution state that is not part of the
// binder's name-resolution job: the cancellation context and the
// operator phase currently running (for error attribution when an
// internal invariant violation is recovered at the Query boundary).
//
// Cancellation is cooperative. Serial operator loops call tick() once
// per row (an int increment; the context is polled every tickInterval
// rows), morsel workers call done() between morsels and drain cleanly,
// and partition workers call checkNow() periodically. When the context
// is done, the coordinating goroutine raises a cancelPanic, which the
// QueryContext/RunContext recover converts into the context's error —
// the same mechanism that turns internal panics into per-query errors,
// so cancellation needs no error plumbing through the operator tree.
type qctx struct {
	ctx   context.Context
	phase string // current operator; coordinator goroutine only
	ticks int    // serial poll counter; coordinator goroutine only

	// qspan is the query's observability span, taken from the context
	// by the caller (driver or CLI); nil means tracing is disabled and
	// the span helpers below are free no-ops. cur is the innermost open
	// operator span — coordinator goroutine only; morsel workers read
	// the operator span captured before they are spawned.
	qspan *obs.Span
	cur   *obs.Span
	// prof is the root of the query's runtime profile tree (EXPLAIN
	// ANALYZE); nil means profiling is disabled and every profile
	// helper is a free no-op. pcur is the innermost open operator node,
	// maintained in lockstep with cur by startOp/endOp. Both are
	// coordinator-goroutine fields; morsel workers may read pcur (the
	// coordinator writes it strictly before spawning and strictly after
	// joining workers, the same happens-before discipline as cur) but
	// touch only its atomic counters.
	prof *obs.OpNode
	pcur *obs.OpNode
	// em carries the engine's metric handles (nil when no registry is
	// installed); workers update them through sharded atomics.
	em *execMetrics

	// cse memoizes subquery and CTE evaluations within this query by
	// literal-preserving fingerprint + CTE scope (cost planner only).
	// Values are shared read-only; the query lifetime bounds the memo.
	// Coordinator goroutine only — subqueries bind before morsel
	// workers exist.
	cse map[string]cseEntry
	// cseHits and decorrelated feed the query's trace: memo reuses and
	// IN-subquery predicates rewritten to joins.
	cseHits      int
	decorrelated int
}

// cseEntry is one memoized subquery evaluation: the raw result for
// expression subqueries, plus the materialized table when the same
// body backed a CTE.
type cseEntry struct {
	res   *Result
	types []schema.Type
	tab   *storage.Table
}

// tickInterval is the serial-path polling granularity: a context check
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
	q := &qctx{ctx: ctx, phase: "parse", qspan: obs.SpanFromContext(ctx), em: e.em}
	if e.profiling {
		q.prof = obs.NewProfile("query")
	}
	return q
}

// setPhase records the operator about to run. Coordinator goroutine
// only; workers never call it.
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

// done reports whether the query's context is cancelled or expired.
// Safe from any goroutine.
func (q *qctx) done() bool {
	if q == nil || q.ctx == nil {
		return false
	}
	select {
	case <-q.ctx.Done():
		return true
	default:
		return false
	}
}

// checkNow raises cancelPanic when the context is done. Safe from any
// goroutine (morsel and partition workers run under the pool's recover,
// which re-raises on the coordinator).
func (q *qctx) checkNow() {
	if q.done() {
		panic(cancelPanic{q.ctx.Err()})
	}
}

// tick is the serial-loop cancellation point: every tickInterval calls
// it polls the context. Coordinator goroutine only — the counter is not
// synchronized.
func (q *qctx) tick() {
	if q == nil {
		return
	}
	q.ticks++
	if q.ticks%tickInterval == 0 {
		q.checkNow()
	}
}

// startOp opens an operator span ("scan store_sales", "build item")
// nested under the innermost open operator — or the query span for
// top-level phases — and makes it current so morsel workers parent
// their per-morsel spans under the right operator. When profiling is
// enabled it also pushes a profile node with the same name, so the
// profile tree mirrors the span tree by construction. Coordinator
// goroutine only. With both tracing and profiling disabled this is a
// nil check and nothing else: the name is assembled only on the
// enabled path, so the hot path stays allocation-free.
func (q *qctx) startOp(verb, detail string) *obs.Span {
	if q == nil || (q.qspan == nil && q.prof == nil) {
		return nil
	}
	name := verb
	if detail != "" {
		name = verb + " " + detail
	}
	if q.prof != nil {
		node := q.pcur
		if node == nil {
			node = q.prof
		}
		q.pcur = node.StartChild(name)
	}
	if q.qspan == nil {
		return nil
	}
	parent := q.cur
	if parent == nil {
		parent = q.qspan
	}
	sp := parent.ChildCat(name, "exec")
	q.cur = sp
	return sp
}

// endOp completes an operator span and restores its parent as the
// current operator; with profiling enabled it also pops the matching
// profile node (startOp/endOp calls are strictly paired, so the node
// stack stays in lockstep even when tracing is off and sp is nil).
// Coordinator goroutine only.
func (q *qctx) endOp(sp *obs.Span) {
	if q != nil && q.prof != nil && q.pcur != nil {
		q.pcur.End()
		if p := q.pcur.Parent(); p != q.prof {
			q.pcur = p
		} else {
			q.pcur = nil
		}
	}
	if sp == nil {
		return
	}
	sp.End()
	if q != nil {
		if p := sp.Parent(); p != q.qspan {
			q.cur = p
		} else {
			q.cur = nil
		}
	}
}

// profiling reports whether this query records a profile tree. Used to
// gate work (like estimate computation) that only the profile consumes.
func (q *qctx) profiling() bool { return q != nil && q.prof != nil }

// opRowsIn records rows entering the current operator on both the
// operator span (as an attribute) and the profile node. Coordinator
// goroutine only; free when observability is off.
func (q *qctx) opRowsIn(sp *obs.Span, n int64) {
	sp.SetAttrInt("rows_in", n)
	if q != nil {
		q.pcur.AddRowsIn(n)
	}
}

// opRowsOut records rows leaving the current operator on both the
// operator span and the profile node. Coordinator goroutine only.
func (q *qctx) opRowsOut(sp *obs.Span, n int64) {
	sp.SetAttrInt("rows_out", n)
	if q != nil {
		q.pcur.AddRowsOut(n)
	}
}

// opEst records the planner's output-cardinality estimate for the
// current operator, enabling estimate-vs-actual q-error in the
// profile. Coordinator goroutine only.
func (q *qctx) opEst(rows float64) {
	if q == nil {
		return
	}
	q.pcur.SetEst(rows)
}

// opMorsels folds a parallel join's per-worker morsel counts into the
// current operator node. Coordinator goroutine only (called after the
// morsel barrier).
func (q *qctx) opMorsels(n int64) {
	if q == nil {
		return
	}
	q.pcur.AddMorsels(n)
}

// growScratch / shrinkScratch account transient operator working
// memory (selection vectors, hash partitions, group arrays) against
// the current profile node. Safe from any goroutine: the node pointer
// is published before workers spawn and the counters are atomic.
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

// profile snapshots the query's profile tree (nil when profiling is
// off). Coordinator goroutine only, after all workers have joined.
func (q *qctx) profile() *obs.OpProfile {
	if q == nil || q.prof == nil {
		return nil
	}
	return q.prof.Snapshot()
}

// opSpan returns the span per-morsel worker spans should parent under:
// the innermost open operator, or the query span itself. nil when
// tracing is off. Coordinator goroutine only (callers capture the
// result before spawning workers).
func (q *qctx) opSpan() *obs.Span {
	if q == nil {
		return nil
	}
	if q.cur != nil {
		return q.cur
	}
	return q.qspan
}
