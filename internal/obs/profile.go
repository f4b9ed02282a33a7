package obs

import (
	"fmt"
	"strings"
	"time"
)

// OpNode is one live operator node in a query's runtime profile tree,
// which follows the plan shape (bind, join, scan/build/probe/stream/
// star, aggregate, sort, ...). Each node keeps its interval and the
// operator's runtime accounting: actual rows in/out, batch counts, and
// peak scratch bytes. It is the query's one per-operator record: a
// trace gets its operator spans from it (PublishOps).
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

// PublishOps records the operator nodes below root as completed child
// spans of s in category cat, on s's lane: each with the node's name,
// its interval against the tracer's epoch, and its rows_in and
// rows_out. A node that never ended (an operator its query abandoned)
// is left out with its subtree, as an unfinished span would be. A nil
// span or root publishes nothing.
func (s *Span) PublishOps(root *OpNode, cat string) {
	if s == nil || root == nil {
		return
	}
	var recs []SpanRecord
	var walk func(n *OpNode, parent uint64)
	walk = func(n *OpNode, parent uint64) {
		for _, c := range n.childs {
			if c.wallNs == 0 {
				continue
			}
			id := s.tr.ids.Add(1)
			recs = append(recs, SpanRecord{
				ID:      id,
				Parent:  parent,
				Name:    c.name,
				Cat:     cat,
				TID:     s.tid,
				StartNs: int64(c.start.Sub(s.tr.epoch)),
				DurNs:   c.wallNs,
				Attrs:   []Attr{{Key: "rows_in", Val: c.rowsIn}, {Key: "rows_out", Val: c.rowsOut}},
			})
			walk(c, id)
		}
	}
	walk(root, s.id)
	s.tr.mu.Lock()
	s.tr.done = append(s.tr.done, recs...)
	s.tr.mu.Unlock()
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
	ScratchBytes int64        `json:"scratch_bytes,omitempty"`
	Children     []*OpProfile `json:"children,omitempty"`
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
