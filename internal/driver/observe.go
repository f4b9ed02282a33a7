package driver

import (
	"fmt"
	"sort"
	"time"

	"tpcds/internal/metric"
	"tpcds/internal/obs"
)

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
