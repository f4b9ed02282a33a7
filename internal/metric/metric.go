// Package metric implements the TPC-DS primary metrics (§5.3):
//
//	QphDS@SF = SF * 3600 * (198*S) / (T_QR1 + T_DM + T_QR2 + 0.01*S*T_Load)
//
// the price-performance ratio $/QphDS@SF, and the execution-rule
// parameters tied to them: the publishable scale factors and the
// minimum number of concurrent query streams per scale factor
// (Figure 12).
package metric

import (
	"fmt"
	"time"

	"tpcds/internal/queries"
	"tpcds/internal/scaling"
)

// QueriesPerStream is the number of queries one stream executes per
// query run (the 99 templates).
const QueriesPerStream = queries.Count

// minStreams maps each official scale factor to its required minimum
// stream count (Figure 12). Larger systems must not only process more
// data but serve more concurrent users.
var minStreams = map[int]int{
	100:    3,
	300:    5,
	1000:   7,
	3000:   9,
	10000:  11,
	30000:  13,
	100000: 15,
}

// MinStreams returns the minimum required query streams for a scale
// factor: the Figure 12 entry of the largest official tier not above
// sf. Development scale factors below the smallest tier (100) require
// one stream; scale factors above the largest tier keep its minimum.
func MinStreams(sf float64) int {
	tier := 0
	for _, o := range scaling.OfficialScaleFactors {
		if float64(o) <= sf && o > tier {
			tier = o
		}
	}
	if tier == 0 {
		return 1
	}
	return minStreams[tier]
}

// ValidateScaleFactor returns an error unless sf is publishable (§3:
// "Benchmark publications using other scale factors are not valid").
func ValidateScaleFactor(sf float64) error {
	if scaling.IsOfficial(sf) {
		return nil
	}
	return fmt.Errorf("metric: scale factor %v is not an official TPC-DS scale factor %v",
		sf, scaling.OfficialScaleFactors)
}

// ValidateStreams returns an error when the stream count is below the
// Figure 12 minimum for the scale factor.
func ValidateStreams(sf float64, streams int) error {
	min := MinStreams(sf)
	if streams < min {
		return fmt.Errorf("metric: %d streams below the minimum %d required at SF %v",
			streams, min, sf)
	}
	return nil
}

// Timings carries the four measured intervals of the benchmark test
// (Figure 11: load test, Query Run 1, Data Maintenance, Query Run 2).
type Timings struct {
	Load time.Duration
	QR1  time.Duration
	DM   time.Duration
	QR2  time.Duration
}

// TotalQueries is the numerator count: 99 queries times two query runs
// times S streams ("198 * S", §5.3).
func TotalQueries(streams int) int { return 2 * QueriesPerStream * streams }

// TotalQueriesFor generalizes TotalQueries to development runs that
// execute a subset of the templates per stream.
func TotalQueriesFor(streams, perStream int) int { return 2 * perStream * streams }

// QphDS computes the primary performance metric. The load time enters
// at 1% weight per stream — enough to "realistically limit the use of
// auxiliary structures without disallowing them" (§5.3) — and the
// result is normalized to queries per hour and by scale factor.
func QphDS(sf float64, streams int, t Timings) float64 {
	return QphDSForQueries(sf, streams, QueriesPerStream, t)
}

// QphDSForQueries computes the metric with an explicit per-stream query
// count. A run that executes a template subset must use the number it
// actually ran — counting all 99 would inflate the metric — and is
// never publishable.
func QphDSForQueries(sf float64, streams, perStream int, t Timings) float64 {
	if sf <= 0 || streams <= 0 || perStream <= 0 {
		return 0
	}
	den := t.QR1.Seconds() + t.DM.Seconds() + t.QR2.Seconds() +
		0.01*float64(streams)*t.Load.Seconds()
	if den <= 0 {
		return 0
	}
	return sf * 3600 * float64(TotalQueriesFor(streams, perStream)) / den
}

// PricePerformance returns the $/QphDS@SF ratio given the 3-year total
// cost of ownership.
func PricePerformance(tco float64, qphds float64) float64 {
	if qphds <= 0 {
		return 0
	}
	return tco / qphds
}

// PriceModel is a simple 3-year TCO model (§5.3: hardware, software and
// 24x7 maintenance with 4-hour response).
type PriceModel struct {
	HardwareUSD    float64
	SoftwareUSD    float64
	MaintenanceUSD float64 // 3-year total
}

// TCO returns the 3-year total cost of ownership.
func (p PriceModel) TCO() float64 {
	return p.HardwareUSD + p.SoftwareUSD + p.MaintenanceUSD
}

// TemplateLatency summarizes the execution-latency distribution of one
// query template across every stream and both query runs, extracted
// from the driver's per-template obs histograms.
type TemplateLatency struct {
	ID    int
	Count int64
	P50   time.Duration
	P95   time.Duration
	Max   time.Duration
}

// Report is a publication-style result summary.
type Report struct {
	SF       float64
	Streams  int
	Timings  Timings
	QphDS    float64
	TCO      float64
	PerQphDS float64
	// PerStream is the number of query templates each stream executed
	// per query run (99 for a full run; zero-value reports are treated
	// as full runs).
	PerStream int
	// Subset is true when the run executed fewer than the 99 templates
	// per stream; its QphDS is computed over the queries actually run
	// and is a development-only number.
	Subset bool
	// Official is false for development runs on non-official scale
	// factors, with too few streams, or over a template subset; such
	// results are not publishable.
	Official bool
	// QueryErrors counts query executions that failed (including
	// timeouts); QueryTimeouts counts the subset that hit the per-query
	// deadline. A run with failed queries is never publishable — the
	// §5.2 execution rules require every stream to complete all
	// templates.
	QueryErrors   int
	QueryTimeouts int
	// QueueWait and ExecTime split the wall-clock Duration of every
	// query into time spent waiting at the driver's admission gate and
	// time spent executing in the engine, summed across streams and
	// runs. QueueWait is zero (and unreported) without a concurrency
	// cap.
	QueueWait time.Duration
	ExecTime  time.Duration
	// Latencies is the per-template execution-latency distribution of
	// an instrumented run (empty — and unreported — otherwise).
	Latencies []TemplateLatency
}

// WithErrorCounts returns a copy of the report carrying per-query
// failure counts. Any failed query invalidates the result for
// publication.
func (r Report) WithErrorCounts(errs, timeouts int) Report {
	r.QueryErrors, r.QueryTimeouts = errs, timeouts
	if errs > 0 {
		r.Official = false
	}
	return r
}

// NewReport assembles a full-run report, computing the metrics and
// validity.
func NewReport(sf float64, streams int, t Timings, price PriceModel) Report {
	return NewReportForQueries(sf, streams, QueriesPerStream, t, price)
}

// NewReportForQueries assembles a report for a run executing perStream
// templates per stream. Subset runs keep an honest QphDS (computed over
// the queries actually run) but are flagged development-only.
func NewReportForQueries(sf float64, streams, perStream int, t Timings, price PriceModel) Report {
	q := QphDSForQueries(sf, streams, perStream, t)
	subset := perStream != QueriesPerStream
	return Report{
		SF: sf, Streams: streams, Timings: t,
		QphDS: q, TCO: price.TCO(), PerQphDS: PricePerformance(price.TCO(), q),
		PerStream: perStream, Subset: subset,
		Official: !subset && ValidateScaleFactor(sf) == nil && ValidateStreams(sf, streams) == nil,
	}
}

// String renders the report in the style of a TPC executive summary.
func (r Report) String() string {
	status := "DEVELOPMENT (not publishable)"
	if r.Official {
		status = "OFFICIAL"
	}
	perStream := r.PerStream
	if perStream == 0 {
		perStream = QueriesPerStream
	}
	qphdsNote := ""
	if r.Subset {
		qphdsNote = fmt.Sprintf(" (subset: %d of %d templates, development only)",
			perStream, QueriesPerStream)
	}
	errLine := ""
	if r.QueryErrors > 0 {
		errLine = fmt.Sprintf("  Query Errors:      %d (%d timed out) — result invalid\n",
			r.QueryErrors, r.QueryTimeouts)
	}
	// The queue/exec split only exists for instrumented runs; reports
	// assembled without it keep the historical layout byte-for-byte.
	splitLine := ""
	if r.ExecTime > 0 {
		splitLine = fmt.Sprintf("  T_Queue / T_Exec:  %v / %v\n",
			r.QueueWait.Round(time.Millisecond), r.ExecTime.Round(time.Millisecond))
	}
	s := fmt.Sprintf(
		"TPC-DS Result [%s]\n"+
			"  Scale Factor:      %v\n"+
			"  Query Streams:     %d (minimum %d)\n"+
			"  Queries Executed:  %d\n"+
			"  T_Load:            %v\n"+
			"  T_QR1:             %v\n"+
			"  T_DM:              %v\n"+
			"  T_QR2:             %v\n"+
			"%s%s"+
			"  QphDS@SF:          %.2f%s\n"+
			"  3yr TCO:           $%.2f\n"+
			"  $/QphDS@SF:        %.4f\n",
		status, r.SF, r.Streams, MinStreams(r.SF), TotalQueriesFor(r.Streams, perStream),
		r.Timings.Load.Round(time.Millisecond), r.Timings.QR1.Round(time.Millisecond),
		r.Timings.DM.Round(time.Millisecond), r.Timings.QR2.Round(time.Millisecond),
		splitLine, errLine, r.QphDS, qphdsNote, r.TCO, r.PerQphDS)
	if len(r.Latencies) > 0 {
		s += "  Per-Template Exec Latency:\n"
		s += "    tmpl  count        p50        p95        max\n"
		for _, l := range r.Latencies {
			s += fmt.Sprintf("    q%-4d %5d %10v %10v %10v\n",
				l.ID, l.Count, l.P50, l.P95, l.Max)
		}
	}
	return s
}
