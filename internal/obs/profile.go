package obs

import (
	"fmt"
	"strings"
	"time"
)

// OpNode is one live operator node in a query's runtime profile tree.
// The tree mirrors the plan shape the span tree describes (bind, join,
// scan/build/probe/stream/star, aggregate, sort, ...), but where spans
// record only intervals, OpNodes accumulate the operator's runtime
// accounting: actual rows in/out, batch counts, and peak scratch
// bytes.
//
// A profile tree belongs to one query, which runs on one goroutine:
// nothing in it is synchronized.
//
// A nil *OpNode is the disabled profile: every method returns
// immediately and StartChild returns nil, so instrumented code threads
// the possibly-nil handle unconditionally and the disabled path stays
// allocation-free (pinned by TestDisabledObservabilityAllocatesNothing).
type OpNode struct {
	name    string
	parent  *OpNode
	childs  []*OpNode
	start   time.Time
	wallNs  int64
	rowsIn  int64
	rowsOut int64
	estRows float64
	hasEst  bool

	batches     int64
	scratchCur  int64
	scratchPeak int64
}

// NewProfile opens a profile tree rooted at name (conventionally the
// query phase root, "query").
func NewProfile(name string) *OpNode {
	return &OpNode{name: name, start: time.Now()}
}

// StartChild opens a child operator node and starts its clock. Returns
// nil on a nil node.
func (n *OpNode) StartChild(name string) *OpNode {
	if n == nil {
		return nil
	}
	c := &OpNode{name: name, parent: n, start: time.Now()}
	n.childs = append(n.childs, c)
	return c
}

// End stops the node's clock. Idempotent (the recorded wall time is
// the first End).
func (n *OpNode) End() {
	if n == nil || n.wallNs != 0 {
		return
	}
	n.wallNs = int64(time.Since(n.start))
	if n.wallNs == 0 {
		n.wallNs = 1 // sub-resolution operator; distinguish from "never ended"
	}
}

// Parent returns the enclosing node (nil for roots and nil nodes).
func (n *OpNode) Parent() *OpNode {
	if n == nil {
		return nil
	}
	return n.parent
}

// AddRowsIn accumulates rows entering the operator.
func (n *OpNode) AddRowsIn(d int64) {
	if n == nil {
		return
	}
	n.rowsIn += d
}

// AddRowsOut accumulates rows leaving the operator.
func (n *OpNode) AddRowsOut(d int64) {
	if n == nil {
		return
	}
	n.rowsOut += d
}

// SetEst records the planner's cardinality estimate for the operator's
// output, enabling q-error in the snapshot.
func (n *OpNode) SetEst(rows float64) {
	if n == nil {
		return
	}
	n.estRows = rows
	n.hasEst = true
}

// AddBatches counts vectorized batches.
func (n *OpNode) AddBatches(d int64) {
	if n == nil {
		return
	}
	n.batches += d
}

// GrowScratch records the allocation of b scratch bytes and advances
// the peak.
func (n *OpNode) GrowScratch(b int64) {
	if n == nil {
		return
	}
	n.scratchCur += b
	n.scratchPeak = max(n.scratchPeak, n.scratchCur)
}

// ShrinkScratch releases b scratch bytes (the peak is unaffected).
func (n *OpNode) ShrinkScratch(b int64) {
	if n == nil {
		return
	}
	n.scratchCur -= b
}

// OpProfile is the exported snapshot of one profile node: plain data,
// JSON-encodable, safe to retain after the query completes.
type OpProfile struct {
	Name    string `json:"name"`
	WallNs  int64  `json:"wall_ns"`
	RowsIn  int64  `json:"rows_in,omitempty"`
	RowsOut int64  `json:"rows_out,omitempty"`
	Batches int64  `json:"batches,omitempty"`
	// ScratchBytes is the peak transient working memory attributed to
	// the operator (selection vectors, hash tables, group arrays).
	// It is an accounting of the dominant allocation sites, not a
	// byte-exact heap measurement.
	ScratchBytes int64 `json:"scratch_bytes,omitempty"`
	// EstRows is the planner's output-cardinality estimate; HasEst
	// distinguishes "estimated zero" from "never estimated".
	EstRows float64 `json:"est_rows,omitempty"`
	HasEst  bool    `json:"has_est,omitempty"`
	// QError is max(est/act, act/est) with both sides clamped to >= 1,
	// the symmetric misestimation factor (1 = perfect). Zero when the
	// operator has no estimate.
	QError   float64      `json:"qerror,omitempty"`
	Children []*OpProfile `json:"children,omitempty"`
}

// QErrorOf computes the symmetric q-error between an estimated and an
// actual cardinality. Both sides are clamped to >= 1 so empty results
// and sub-row estimates compare stably (est 0.2 vs actual 0 is a
// perfect 1.0, not an infinity).
func QErrorOf(est, act float64) float64 {
	if est < 1 {
		est = 1
	}
	if act < 1 {
		act = 1
	}
	if est > act {
		return est / act
	}
	return act / est
}

// Snapshot exports the subtree rooted at n. An un-ended node is
// snapshotted with the time accumulated so far.
func (n *OpNode) Snapshot() *OpProfile {
	if n == nil {
		return nil
	}
	wall := n.wallNs
	if wall == 0 {
		wall = int64(time.Since(n.start))
	}
	p := &OpProfile{
		Name:         n.name,
		WallNs:       wall,
		RowsIn:       n.rowsIn,
		RowsOut:      n.rowsOut,
		Batches:      n.batches,
		ScratchBytes: n.scratchPeak,
		EstRows:      n.estRows,
		HasEst:       n.hasEst,
	}
	if n.hasEst {
		p.QError = QErrorOf(n.estRows, float64(n.rowsOut))
	}
	for _, c := range n.childs {
		p.Children = append(p.Children, c.Snapshot())
	}
	return p
}

// String renders the profile tree in the fixed EXPLAIN ANALYZE layout.
func (p *OpProfile) String() string {
	var b strings.Builder
	p.render(&b, 0)
	return b.String()
}

// render writes one node and recurses. The field order is fixed and
// zero-valued fields are omitted, so renderings of equal profiles are
// byte-identical (pinned by the golden test); only wall times vary
// between runs of the same query.
func (p *OpProfile) render(b *strings.Builder, depth int) {
	if p == nil {
		return
	}
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	fmt.Fprintf(b, "%-*s time=%v", 24-2*depth, p.Name, time.Duration(p.WallNs).Round(time.Microsecond))
	if p.RowsIn > 0 {
		fmt.Fprintf(b, " rows_in=%d", p.RowsIn)
	}
	if p.RowsOut > 0 || p.RowsIn > 0 {
		fmt.Fprintf(b, " rows_out=%d", p.RowsOut)
	}
	if p.HasEst {
		fmt.Fprintf(b, " est=%.0f q=%.2f", p.EstRows, p.QError)
	}
	if p.Batches > 0 {
		fmt.Fprintf(b, " batches=%d", p.Batches)
	}
	if p.ScratchBytes > 0 {
		fmt.Fprintf(b, " scratch=%s", byteSize(p.ScratchBytes))
	}
	b.WriteByte('\n')
	for _, c := range p.Children {
		c.render(b, depth+1)
	}
}

// byteSize renders a byte count with a binary-power unit, one decimal.
func byteSize(n int64) string {
	const k = 1024
	switch {
	case n >= k*k*k:
		return fmt.Sprintf("%.1fGiB", float64(n)/(k*k*k))
	case n >= k*k:
		return fmt.Sprintf("%.1fMiB", float64(n)/(k*k))
	case n >= k:
		return fmt.Sprintf("%.1fKiB", float64(n)/k)
	}
	return fmt.Sprintf("%dB", n)
}

// Walk calls fn for every node in the profile tree in render order
// (pre-order, children in plan order).
func (p *OpProfile) Walk(fn func(*OpProfile)) {
	if p == nil {
		return
	}
	fn(p)
	for _, c := range p.Children {
		c.Walk(fn)
	}
}
