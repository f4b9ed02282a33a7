package exec

import (
	"fmt"
	"strings"

	"tpcds/internal/obs"
	"tpcds/internal/plan"
)

// TableTrace describes one FROM entry as the executor saw it.
type TableTrace struct {
	Binding  string
	Rows     int
	Filters  int
	Estimate float64 // estimated rows after local filters
}

// Trace describes how the engine executed the most recent query's join
// phase — the EXPLAIN surface.
type Trace struct {
	Strategy  plan.Strategy
	Decision  plan.Decision
	Tables    []TableTrace
	JoinOrder []string // driver first
	BaseRows  int      // joined rows fed to aggregation/projection

	// Planner surface: PlanSource says how the join order was obtained
	// ("dp", "greedy", or "cache:<source>" on a plan-cache hit),
	// EstBaseRows is the cost model's estimate of BaseRows (0 in the
	// tests' reference, which does not estimate), CSEHits counts
	// subquery/CTE evaluations answered from the per-query memo, and
	// Decorrelated counts IN-subquery predicates rewritten to joins.
	PlanSource   string
	EstBaseRows  float64
	CSEHits      int
	Decorrelated int

	// Profile is the per-operator runtime accounting tree (EXPLAIN
	// ANALYZE): actual rows, batches, wall time, and peak scratch per
	// operator. Nil unless Engine.SetProfiling(true) was called.
	Profile *obs.OpProfile
}

// String renders the trace in an EXPLAIN-like layout.
func (t Trace) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "strategy: %s", t.Strategy)
	if t.Decision.Reason != "" {
		fmt.Fprintf(&sb, " (%s)", t.Decision.Reason)
	}
	sb.WriteByte('\n')
	if t.PlanSource != "" {
		fmt.Fprintf(&sb, "plan source: %s", t.PlanSource)
		if t.Decorrelated > 0 {
			fmt.Fprintf(&sb, ", %d IN-subqueries decorrelated", t.Decorrelated)
		}
		if t.CSEHits > 0 {
			fmt.Fprintf(&sb, ", %d subquery CSE hits", t.CSEHits)
		}
		sb.WriteByte('\n')
	}
	if len(t.JoinOrder) > 0 {
		fmt.Fprintf(&sb, "join order: %s\n", strings.Join(t.JoinOrder, " -> "))
	}
	for _, tt := range t.Tables {
		fmt.Fprintf(&sb, "  table %-24s %9d rows, %d filters, est. %.0f\n",
			tt.Binding, tt.Rows, tt.Filters, tt.Estimate)
	}
	if t.EstBaseRows > 0 {
		fmt.Fprintf(&sb, "joined base rows: %d (est. %.0f)\n", t.BaseRows, t.EstBaseRows)
	} else {
		fmt.Fprintf(&sb, "joined base rows: %d\n", t.BaseRows)
	}
	if t.Profile != nil {
		sb.WriteString("profile:\n")
		sb.WriteString(t.Profile.String())
	}
	return sb.String()
}

func (e *Engine) setTrace(t Trace) {
	e.mu.Lock()
	e.lastTrace = t
	e.mu.Unlock()
}

// LastTrace returns the execution trace of the most recent completed
// query's outermost block. It is a convenience for single-threaded
// diagnostics; concurrent streams should use QueryTraced, which returns
// the trace of the specific call.
func (e *Engine) LastTrace() Trace {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastTrace
}

// Explain executes the query and returns the trace rendering together
// with the result shape. The engine is an in-memory executor, so
// explaining by doing is exact rather than estimated.
func (e *Engine) Explain(q string) (string, error) {
	res, t, err := e.QueryTraced(q)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%sresult: %d rows x %d columns\n", t.String(), len(res.Rows), len(res.Columns)), nil
}

// buildTableTraces snapshots the per-table statistics for the trace.
func (e *Engine) buildTableTraces(b *binder, filters []filterInfo) []TableTrace {
	out := make([]TableTrace, len(b.tables))
	for ti := range b.tables {
		nf := 0
		for _, f := range filters {
			if f.table == ti {
				nf++
			}
		}
		out[ti] = TableTrace{
			Binding:  b.tables[ti].binding,
			Rows:     b.tables[ti].tab.NumRows(),
			Filters:  nf,
			Estimate: e.estimateFiltered(b, ti, filters),
		}
	}
	return out
}
