package exec

import "tpcds/internal/obs"

// execMetrics holds the engine's resolved metric handles. Handles are
// resolved once in SetMetrics so the query hot path never touches the
// registry's lookup lock; all handles are nil-safe, so a nil
// execMetrics pointer (no registry installed) and nil handles cost one
// branch each.
type execMetrics struct {
	// rowsScanned counts base-table rows examined by scans.
	rowsScanned *obs.Counter
	// buildRows counts rows inserted into hash-join build sides.
	buildRows *obs.Counter
	// batches counts vectorized batches processed by the batch scanner.
	batches *obs.Counter
	// planCacheHits / planCacheMisses count cost-planner plan-cache
	// lookups (the multi-stream benchmark's hit-rate criterion reads
	// these).
	planCacheHits   *obs.Counter
	planCacheMisses *obs.Counter
	// cseHits counts subquery/CTE evaluations answered by the per-query
	// common-subexpression memo instead of re-execution.
	cseHits *obs.Counter
}

// SetMetrics installs a metrics registry on the engine; the executor
// then counts rows scanned, hash-build rows and batches into it. nil
// removes the instrumentation. Not safe to call concurrently with
// queries.
func (e *Engine) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		e.em = nil
		return
	}
	e.em = &execMetrics{
		rowsScanned:     reg.Counter("exec_rows_scanned"),
		buildRows:       reg.Counter("exec_hash_build_rows"),
		batches:         reg.Counter("exec_batches"),
		planCacheHits:   reg.Counter("exec_plan_cache_hits"),
		planCacheMisses: reg.Counter("exec_plan_cache_misses"),
		cseHits:         reg.Counter("exec_cse_hits"),
	}
}

// countScan records base-table rows examined.
func (q *qctx) countScan(n int) {
	if q == nil || q.em == nil {
		return
	}
	q.em.rowsScanned.Add(int64(n))
}

// countBuild records hash-build rows.
func (q *qctx) countBuild(n int) {
	if q == nil || q.em == nil {
		return
	}
	q.em.buildRows.Add(int64(n))
}

// countBatch records one vectorized batch, into both the engine
// counter and the current operator's profile node.
func (q *qctx) countBatch() {
	if q == nil {
		return
	}
	q.pcur.AddBatches(1)
	if q.em == nil {
		return
	}
	q.em.batches.Add(1)
}

// countPlanCacheHit records one plan-cache hit.
func (q *qctx) countPlanCacheHit() {
	if q == nil || q.em == nil {
		return
	}
	q.em.planCacheHits.Add(1)
}

// countPlanCacheMiss records one plan-cache miss.
func (q *qctx) countPlanCacheMiss() {
	if q == nil || q.em == nil {
		return
	}
	q.em.planCacheMisses.Add(1)
}

// countCSEHit records one memoized subquery/CTE reuse and bumps the
// per-query counter surfaced in the trace.
func (q *qctx) countCSEHit() {
	if q == nil {
		return
	}
	q.cseHits++
	if q.em == nil {
		return
	}
	q.em.cseHits.Add(1)
}
