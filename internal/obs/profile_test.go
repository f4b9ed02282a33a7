package obs

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestProfileTreeAccounting builds a small operator tree the way the
// executor does (StartChild/End pairs, counters between them) and
// checks the snapshot carries every field to the right node.
func TestProfileTreeAccounting(t *testing.T) {
	root := NewProfile("query")
	join := root.StartChild("join")
	join.AddRowsIn(1000)
	build := join.StartChild("build d")
	build.AddRowsIn(50)
	build.AddRowsOut(50)
	build.GrowScratch(4096)
	build.ShrinkScratch(4096)
	build.End()
	probe := join.StartChild("probe d")
	probe.AddRowsIn(1000)
	probe.AddRowsOut(400)
	probe.AddBatches(2)
	probe.End()
	join.AddRowsOut(400)
	join.End()
	root.End()

	p := root.Snapshot()
	if p.Name != "query" || len(p.Children) != 1 {
		t.Fatalf("root = %q with %d children, want query with 1", p.Name, len(p.Children))
	}
	j := p.Children[0]
	if len(j.Children) != 2 {
		t.Fatalf("join has %d children, want build+probe", len(j.Children))
	}
	b, pr := j.Children[0], j.Children[1]
	if b.Name != "build d" || b.RowsOut != 50 || b.ScratchBytes != 4096 {
		t.Errorf("build node = %+v, want 50 rows out, 4096 peak scratch", b)
	}
	if pr.RowsIn != 1000 || pr.RowsOut != 400 || pr.Batches != 2 {
		t.Errorf("probe node = %+v, want in=1000 out=400 batches=2", pr)
	}
	for _, n := range []*OpProfile{p, j, b, pr} {
		if n.WallNs <= 0 {
			t.Errorf("node %q wall = %d, want > 0 after End", n.Name, n.WallNs)
		}
	}
	// Walk visits in pre-order render order.
	var order []string
	p.Walk(func(n *OpProfile) { order = append(order, n.Name) })
	if want := []string{"query", "join", "build d", "probe d"}; !reflect.DeepEqual(order, want) {
		t.Errorf("Walk order = %v, want %v", order, want)
	}
}

// TestProfileNilSafe pins the disabled contract: every OpNode method on
// nil returns without touching memory, and a nil snapshot renders to
// nothing.
func TestProfileNilSafe(t *testing.T) {
	var n *OpNode
	c := n.StartChild("x")
	if c != nil {
		t.Fatal("StartChild on nil returned a live node")
	}
	n.End()
	n.AddRowsIn(1)
	n.AddRowsOut(1)
	n.AddBatches(1)
	n.GrowScratch(100)
	n.ShrinkScratch(100)
	if n.Parent() != nil || n.Snapshot() != nil {
		t.Error("nil node leaked a parent or snapshot")
	}
	var p *OpProfile
	p.Walk(func(*OpProfile) { t.Error("Walk visited a nil profile") })
}

// TestProfileScratchPeak checks the accumulating fields: batches sum,
// and the scratch peak is the high-water mark of the running total —
// nested growth adds up, released bytes never lower it.
func TestProfileScratchPeak(t *testing.T) {
	n := NewProfile("op")
	for i := 0; i < 3; i++ {
		n.AddBatches(1)
		n.GrowScratch(64)
		n.GrowScratch(32)
		n.ShrinkScratch(32)
		n.ShrinkScratch(64)
	}
	n.GrowScratch(16)
	n.End()
	p := n.Snapshot()
	if p.Batches != 3 {
		t.Errorf("batches = %d, want 3", p.Batches)
	}
	if p.ScratchBytes != 96 {
		t.Errorf("peak scratch = %d, want 96", p.ScratchBytes)
	}
}

// TestProfileRenderGolden pins the EXPLAIN ANALYZE rendering byte for
// byte. The profile is constructed directly with fixed wall times, so
// the golden holds across machines; the executor-facing layout (indent
// step, field order, omitted zeros) must not drift silently.
func TestProfileRenderGolden(t *testing.T) {
	p := &OpProfile{
		Name: "query", WallNs: 2_500_000,
		Children: []*OpProfile{
			{Name: "bind", WallNs: 100_000},
			{
				Name: "join", WallNs: 2_000_000, RowsIn: 1000, RowsOut: 400,
				Children: []*OpProfile{
					{Name: "build d", WallNs: 300_000, RowsIn: 50, RowsOut: 50, ScratchBytes: 4096},
					{
						Name: "probe d", WallNs: 1_500_000, RowsIn: 1000, RowsOut: 400,
						Batches: 2,
					},
				},
			},
			{Name: "sort", WallNs: 200_000, RowsIn: 400, RowsOut: 400, ScratchBytes: 3 << 20},
		},
	}
	want := "query                    time=2.5ms\n" +
		"  bind                   time=100µs\n" +
		"  join                   time=2ms rows_in=1000 rows_out=400\n" +
		"    build d              time=300µs rows_in=50 rows_out=50 scratch=4.0KiB\n" +
		"    probe d              time=1.5ms rows_in=1000 rows_out=400 batches=2\n" +
		"  sort                   time=200µs rows_in=400 rows_out=400 scratch=3.0MiB\n"
	if got := p.String(); got != want {
		t.Errorf("render drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// The snapshot is JSON-encodable with stable field names.
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back OpProfile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, p) {
		t.Error("profile did not round-trip through JSON")
	}
}

// TestProfileEndIdempotent: a second End keeps the first wall time.
func TestProfileEndIdempotent(t *testing.T) {
	n := NewProfile("x")
	n.End()
	first := n.Snapshot().WallNs
	n.End()
	if again := n.Snapshot().WallNs; again != first {
		t.Errorf("second End changed wall time: %d -> %d", first, again)
	}
	if first <= 0 {
		t.Errorf("wall = %d, want >= 1 (sub-resolution clamp)", first)
	}
}
