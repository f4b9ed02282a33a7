package driver

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"tpcds/internal/metric"
	"tpcds/internal/obs"
)

// QErrorHistogram is the registry histogram receiving one observation
// per estimated profile node: the node's q-error scaled by 1000, so
// 1000 is a perfect estimate and the first bucket (bound 1000) counts
// exactly the perfect nodes.
const QErrorHistogram = "plan_qerror_x1000"

// templateHistogram names the per-template execution-latency histogram
// in the metrics registry. The _ns suffix makes the registry's text
// dump render the buckets as durations.
func templateHistogram(tplID int) string {
	return fmt.Sprintf("driver_q%d_exec_ns", tplID)
}

// templateLatencies extracts the per-template latency distribution from
// the registry's histograms for the report. The template set comes from
// the timings actually recorded, so subset runs report exactly the
// templates they ran. Returns nil without a registry.
func templateLatencies(reg *obs.Registry, qs []QueryTiming) []metric.TemplateLatency {
	if reg == nil {
		return nil
	}
	seen := map[int]bool{}
	for _, qt := range qs {
		seen[qt.QueryID] = true
	}
	out := make([]metric.TemplateLatency, 0, len(seen))
	for id := range seen {
		h := reg.Histogram(templateHistogram(id))
		if h.Count() == 0 {
			continue
		}
		out = append(out, metric.TemplateLatency{
			ID:    id,
			Count: h.Count(),
			P50:   time.Duration(h.Quantile(0.50)),
			P95:   time.Duration(h.Quantile(0.95)),
			Max:   time.Duration(h.Max()),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// misestimates aggregates estimate-vs-actual feedback across every
// profiled query of a run: per template, the single worst-misestimated
// operator node seen in any stream or run. Safe for concurrent use —
// every stream records into it.
type misestimates struct {
	mu    sync.Mutex
	byTpl map[int]metric.Misestimate
}

func newMisestimates() *misestimates {
	return &misestimates{byTpl: map[int]metric.Misestimate{}}
}

// record folds one profiled query execution into the aggregation and
// observes each estimated node's q-error into the registry histogram.
// The worst-node choice is deterministic across stream schedules: a
// strictly larger q-error wins, ties keep the lexicographically
// smaller operator name (then the smaller estimate), so the table does
// not depend on which stream reported first.
func (ms *misestimates) record(reg *obs.Registry, tpl int, prof *obs.OpProfile) {
	if ms == nil || prof == nil {
		return
	}
	var h *obs.Histogram
	if reg != nil {
		h = reg.Histogram(QErrorHistogram)
	}
	worst := metric.Misestimate{ID: tpl}
	prof.Walk(func(n *obs.OpProfile) {
		if !n.HasEst {
			return
		}
		worst.Nodes++
		h.Observe(int64(n.QError * 1000))
		better := n.QError > worst.QError ||
			(n.QError == worst.QError && worst.Op != "" &&
				(n.Name < worst.Op || (n.Name == worst.Op && n.EstRows < worst.Est)))
		if worst.Op == "" || better {
			worst.Op, worst.Est, worst.Actual, worst.QError = n.Name, n.EstRows, n.RowsOut, n.QError
		}
	})
	if worst.Nodes == 0 {
		return
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	prev, ok := ms.byTpl[tpl]
	if ok {
		worst.Nodes += prev.Nodes
		if prev.QError > worst.QError ||
			(prev.QError == worst.QError &&
				(prev.Op < worst.Op || (prev.Op == worst.Op && prev.Est < worst.Est))) {
			worst.Op, worst.Est, worst.Actual, worst.QError = prev.Op, prev.Est, prev.Actual, prev.QError
		}
	}
	ms.byTpl[tpl] = worst
}

// report returns the aggregated table sorted worst-first (ties by
// template id), the order the executive summary uses.
func (ms *misestimates) report() []metric.Misestimate {
	if ms == nil {
		return nil
	}
	ms.mu.Lock()
	out := make([]metric.Misestimate, 0, len(ms.byTpl))
	for _, m := range ms.byTpl {
		out = append(out, m)
	}
	ms.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].QError != out[j].QError {
			return out[i].QError > out[j].QError
		}
		return out[i].ID < out[j].ID
	})
	return out
}
