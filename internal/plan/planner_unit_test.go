package plan

import (
	"math"
	"reflect"
	"testing"

	"tpcds/internal/sql"
)

// testGraph is a 3-table star: driver 0 (1000 filtered rows), pinned
// candidate 1 (100 rows, unknown join NDV → behaves like a key join),
// free candidate 2 (5 rows joining a 1000-NDV driver column, so the
// join filters the intermediate result 200:1).
func testGraph() Graph {
	return Graph{
		Tables: []TableCard{
			{Name: "f", Rows: 2000, Est: 1000},
			{Name: "d1", Rows: 100, Est: 100},
			{Name: "d2", Rows: 5, Est: 5},
		},
		Edges: []Edge{
			{A: 0, B: 1},
			{A: 0, B: 2, NDVA: 1000, NDVB: 5},
		},
	}
}

func TestSearchMovesFreeTableEarly(t *testing.T) {
	jp := Search(SearchInput{
		Graph:           testGraph(),
		Driver:          0,
		Pinned:          []int{1},
		Free:            []int{2},
		GreedyOrder:     []int{0, 1, 2},
		GreedyConnected: true,
	})
	if jp.Source != "dp" {
		t.Fatalf("source = %q, want dp", jp.Source)
	}
	// Joining the selective d2 first shrinks the probe stream before d1.
	if !reflect.DeepEqual(jp.Order, []int{0, 2, 1}) {
		t.Fatalf("order = %v, want [0 2 1]", jp.Order)
	}
	g := testGraph()
	gCost, gCard := g.orderCost(0, []int{1, 2})
	if jp.Cost >= gCost {
		t.Fatalf("dp cost %v not below greedy cost %v", jp.Cost, gCost)
	}
	if math.Abs(jp.EstRows-gCard) > 1e-9 {
		t.Fatalf("est rows %v, want %v (order must not change cardinality)", jp.EstRows, gCard)
	}
}

func TestSearchPreservesPinnedRelativeOrder(t *testing.T) {
	// Both non-driver tables pinned: even though joining the small d2
	// first would be cheaper, the baseline relative order must hold.
	jp := Search(SearchInput{
		Graph:           testGraph(),
		Driver:          0,
		Pinned:          []int{1, 2},
		GreedyOrder:     []int{0, 1, 2},
		GreedyConnected: true,
	})
	if !reflect.DeepEqual(jp.Order, []int{0, 1, 2}) {
		t.Fatalf("order = %v, want pinned baseline [0 1 2]", jp.Order)
	}
}

func TestSearchFallbacks(t *testing.T) {
	base := SearchInput{
		Graph:           testGraph(),
		Driver:          0,
		Free:            []int{1, 2},
		GreedyOrder:     []int{0, 1, 2},
		GreedyConnected: true,
	}

	// Disconnected baseline: returned verbatim.
	in := base
	in.GreedyConnected = false
	if jp := Search(in); jp.Source != "greedy" || !reflect.DeepEqual(jp.Order, []int{0, 1, 2}) {
		t.Fatalf("disconnected baseline: got %+v, want greedy [0 1 2]", jp)
	}

	// Problem too large: 2^n state space declined.
	big := SearchInput{Driver: 0, GreedyConnected: true, GreedyOrder: []int{0}}
	big.Graph.Tables = append(big.Graph.Tables, TableCard{Est: 10})
	for i := 1; i <= dpMaxTables+1; i++ {
		big.Graph.Tables = append(big.Graph.Tables, TableCard{Est: 10})
		big.Graph.Edges = append(big.Graph.Edges, Edge{A: 0, B: i})
		big.Free = append(big.Free, i)
		big.GreedyOrder = append(big.GreedyOrder, i)
	}
	if jp := Search(big); jp.Source != "greedy" {
		t.Fatalf("oversized problem: source %q, want greedy", jp.Source)
	}

	// A table with no join edge: the full DP mask is unreachable.
	in = base
	in.Graph.Edges = in.Graph.Edges[:1] // drop the 0-2 edge
	if jp := Search(in); jp.Source != "greedy" {
		t.Fatalf("edgeless table: source %q, want greedy", jp.Source)
	}

	// Nothing to order.
	in = base
	in.Free = nil
	in.GreedyOrder = []int{0}
	if jp := Search(in); jp.Source != "greedy" || !reflect.DeepEqual(jp.Order, []int{0}) {
		t.Fatalf("driver-only: got %+v", jp)
	}
}

func TestSearchDeterministic(t *testing.T) {
	// All estimates tied: the search must still return one fixed order.
	g := Graph{
		Tables: []TableCard{{Est: 100}, {Est: 10}, {Est: 10}, {Est: 10}},
		Edges:  []Edge{{A: 0, B: 1}, {A: 0, B: 2}, {A: 0, B: 3}},
	}
	in := SearchInput{
		Graph: g, Driver: 0,
		Free:        []int{1, 2, 3},
		GreedyOrder: []int{0, 1, 2, 3}, GreedyConnected: true,
	}
	first := Search(in)
	for i := 0; i < 50; i++ {
		if got := Search(in); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d: %+v differs from first %+v", i, got, first)
		}
	}
}

func TestCacheBasics(t *testing.T) {
	c := NewCache()
	v1 := []Version{{ID: 7, Epoch: 3}, {ID: 9, Epoch: 1}}
	if _, ok := c.Get("k", v1); ok {
		t.Fatal("empty cache hit")
	}
	p := Cached{Order: []int{0, 2, 1}, Cost: 42, EstRows: 5, Source: "dp"}
	c.Put("k", p, v1)
	got, ok := c.Get("k", []Version{{ID: 7, Epoch: 3}, {ID: 9, Epoch: 1}})
	if !ok || !reflect.DeepEqual(got, p) {
		t.Fatalf("get = %+v, %v", got, ok)
	}
	if h, m := c.Stats(); h != 1 || m != 1 {
		t.Fatalf("stats = %d hits, %d misses; want 1, 1", h, m)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}

	// A plan made from other versions of its tables is a miss: a moved
	// epoch, another instance of the table, or another table list.
	other := []Version{{ID: 11, Epoch: 0}}
	c.Put("other", Cached{Source: "greedy"}, other)
	for _, moved := range [][]Version{
		{{ID: 7, Epoch: 4}, {ID: 9, Epoch: 1}},
		{{ID: 7, Epoch: 3}, {ID: 10, Epoch: 1}},
		{{ID: 7, Epoch: 3}},
		nil,
	} {
		if _, ok := c.Get("k", moved); ok {
			t.Errorf("entry made from %v served a lookup at %v", v1, moved)
		}
	}
	if _, ok := c.Get("other", other); !ok {
		t.Fatal("an entry whose tables did not move missed")
	}
	// The replan's Put replaces the stale entry under the same key.
	moved := []Version{{ID: 7, Epoch: 4}, {ID: 9, Epoch: 1}}
	c.Put("k", Cached{Source: "greedy"}, moved)
	if got, ok := c.Get("k", moved); !ok || got.Source != "greedy" {
		t.Fatalf("after the replan: get = %+v, %v", got, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d after the replan, want 2", c.Len())
	}
}

func mustParse(t *testing.T, q string) *sql.SelectStmt {
	t.Helper()
	s, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return s
}

func TestFingerprintCollapsesLiterals(t *testing.T) {
	a := mustParse(t, "SELECT a FROM t WHERE b = 1 AND c > 10")
	b := mustParse(t, "SELECT a FROM t WHERE b = 2 AND c > 99")
	if Fingerprint(a, false) != Fingerprint(b, false) {
		t.Fatal("literal-only difference changed the template fingerprint")
	}
	if Fingerprint(a, true) == Fingerprint(b, true) {
		t.Fatal("keepLiterals=true must distinguish different literals")
	}
	// IN-list length is part of the shape even with literals collapsed.
	short := mustParse(t, "SELECT a FROM t WHERE b IN (1, 2)")
	long := mustParse(t, "SELECT a FROM t WHERE b IN (1, 2, 3)")
	if Fingerprint(short, false) == Fingerprint(long, false) {
		t.Fatal("IN-list length must be part of the fingerprint")
	}
	// Different structure differs.
	c := mustParse(t, "SELECT a FROM t WHERE b = 1 OR c > 10")
	if Fingerprint(a, false) == Fingerprint(c, false) {
		t.Fatal("AND vs OR collided")
	}
}

func TestDecorrelateBasicIn(t *testing.T) {
	orig := mustParse(t, "SELECT a FROM t WHERE b IN (SELECT x FROM s WHERE y > 3)")
	out, n := Decorrelate(orig)
	if n != 1 {
		t.Fatalf("n = %d, want 1", n)
	}
	if out == orig {
		t.Fatal("rewrite returned the original pointer")
	}
	// Original untouched (copy-on-write).
	if len(orig.With) != 0 || len(orig.From) != 1 {
		t.Fatalf("original mutated: %d CTEs, %d FROM entries", len(orig.With), len(orig.From))
	}
	if _, ok := orig.Where.(*sql.In); !ok {
		t.Fatal("original WHERE mutated")
	}

	if len(out.With) != 2 {
		t.Fatalf("synthesized %d CTEs, want 2", len(out.With))
	}
	if out.With[0].Name != "__dc_0_s" || out.With[1].Name != "__dc_0" {
		t.Fatalf("CTE names %q, %q", out.With[0].Name, out.With[1].Name)
	}
	dedup := out.With[1].Select
	if !dedup.Distinct {
		t.Fatal("dedup CTE must be DISTINCT (join-key uniqueness)")
	}
	if isn, ok := dedup.Where.(*sql.IsNull); !ok || !isn.Not {
		t.Fatal("dedup CTE must filter IS NOT NULL")
	}
	if len(out.From) != 2 || out.From[1].Table != "__dc_0" {
		t.Fatalf("FROM = %+v, want t plus __dc_0", out.From)
	}
	eq, ok := out.Where.(*sql.BinOp)
	if !ok || eq.Op != "=" {
		t.Fatalf("WHERE rewrote to %T, want = predicate", out.Where)
	}
	r, ok := eq.R.(*sql.ColRef)
	if !ok || r.Table != "__dc_0" || r.Name != "__dc_v" {
		t.Fatalf("join column = %+v", eq.R)
	}
}

func TestDecorrelateExclusions(t *testing.T) {
	for _, q := range []string{
		// NOT IN: NULL semantics have no join equivalent.
		"SELECT a FROM t WHERE b NOT IN (SELECT x FROM s)",
		// LHS is not a plain column.
		"SELECT a FROM t WHERE b + 1 IN (SELECT x FROM s)",
		// Subquery carries LIMIT.
		"SELECT a FROM t WHERE b IN (SELECT x FROM s LIMIT 5)",
		// Subquery is a UNION ALL head.
		"SELECT a FROM t WHERE b IN (SELECT x FROM s UNION ALL SELECT x FROM u)",
		// No subquery at all.
		"SELECT a FROM t WHERE b IN (1, 2, 3)",
		// IN under OR is not a top-level conjunct.
		"SELECT a FROM t WHERE a = 0 OR b IN (SELECT x FROM s)",
	} {
		orig := mustParse(t, q)
		out, n := Decorrelate(orig)
		if n != 0 {
			t.Errorf("%s: rewrote %d predicates, want 0", q, n)
		}
		if out != orig {
			t.Errorf("%s: returned a copy for a no-op rewrite", q)
		}
	}
}

func TestDecorrelateNestedAndUnion(t *testing.T) {
	// Nested IN inside the IN subquery: both rewritten; the inner
	// rewrite lands in the inner statement's own WITH scope.
	out, n := Decorrelate(mustParse(t,
		"SELECT a FROM t WHERE b IN (SELECT x FROM s WHERE y IN (SELECT z FROM u))"))
	if n != 2 {
		t.Fatalf("nested: n = %d, want 2", n)
	}
	if len(out.With) != 2 {
		t.Fatalf("nested: head has %d CTEs, want 2", len(out.With))
	}
	inner := out.With[0].Select // __dc_N_s wraps the rewritten subquery
	if len(inner.With) != 2 {
		t.Fatalf("nested: inner statement has %d CTEs, want 2", len(inner.With))
	}

	// Union blocks share the head's WITH scope.
	out, n = Decorrelate(mustParse(t,
		"SELECT a FROM t WHERE b IN (SELECT x FROM s) UNION ALL SELECT a FROM t2 WHERE b IN (SELECT x FROM s2)"))
	if n != 2 {
		t.Fatalf("union: n = %d, want 2", n)
	}
	if len(out.With) != 4 {
		t.Fatalf("union: head has %d CTEs, want all 4", len(out.With))
	}
	if out.UnionAll == nil || len(out.UnionAll.With) != 0 {
		t.Fatal("union: block CTEs must attach to the head")
	}

	// Existing CTEs stay first (materialization order).
	out, n = Decorrelate(mustParse(t,
		"WITH w AS (SELECT x FROM s) SELECT a FROM t WHERE b IN (SELECT x FROM w)"))
	if n != 1 {
		t.Fatalf("with: n = %d, want 1", n)
	}
	if len(out.With) != 3 || out.With[0].Name != "w" {
		t.Fatalf("with: CTE order %v", []string{out.With[0].Name, out.With[1].Name, out.With[2].Name})
	}
}
