package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tpcds/internal/index"
	"tpcds/internal/obs"
	"tpcds/internal/plan"
	"tpcds/internal/rng"
	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

// Row counts of starDB's dimensions.
const starA, starB, starC = 40, 30, 20

// starDB is a three-dimension star: fact sf with one foreign key per
// dimension da, db, dc (surrogate key x_k, group column x_g in 0..4).
func starDB(factRows int) *storage.DB {
	s := rng.NewStream(5)
	db := storage.NewDB()
	dims := []struct {
		name string
		rows int
	}{{"a", starA}, {"b", starB}, {"c", starC}}
	fact := &schema.Table{Name: "sf", Kind: schema.Fact, PrimaryKey: []string{"sf_o"}}
	for _, d := range dims {
		t := db.Create(&schema.Table{
			Name: "d" + d.name, Kind: schema.Dimension,
			Columns: []schema.Column{
				{Name: d.name + "_k", Type: schema.Identifier},
				{Name: d.name + "_g", Type: schema.Integer},
			},
			PrimaryKey: []string{d.name + "_k"},
		})
		for i := 1; i <= d.rows; i++ {
			t.Append([]storage.Value{storage.Int(int64(i)), storage.Int(s.Int63n(5))})
		}
		fact.Columns = append(fact.Columns, schema.Column{Name: "sf_" + d.name, Type: schema.Identifier, Nullable: true})
	}
	fact.Columns = append(fact.Columns,
		schema.Column{Name: "sf_m", Type: schema.Integer},
		schema.Column{Name: "sf_o", Type: schema.Identifier})
	ft := db.Create(fact)
	for i := 0; i < factRows; i++ {
		row := make([]storage.Value, 0, 5)
		for _, d := range dims {
			k := storage.Value(storage.Int(1 + s.Int63n(int64(d.rows))))
			if s.Intn(15) == 0 {
				k = storage.Null
			}
			row = append(row, k)
		}
		ft.Append(append(row, storage.Int(s.Int63n(100)), storage.Int(int64(i))))
	}
	return db
}

const starJoin = `SELECT a_g, COUNT(*) c, SUM(sf_m) m FROM sf, da, db, dc
	WHERE sf_a = a_k AND sf_b = b_k AND sf_c = c_k`

// TestScanOncePerQuery: a table's rows are read once per query.
// exec_rows_scanned of a star-eligible query is exactly the sum of its
// filtered dimensions' row counts — the count scan that picks the
// strategy and the strategy that joins share one selection — plus, in
// the hash pipeline, the fact's rows (read by its filter scan or, when
// unfiltered, by the operator it drives or streams through; the star
// fetches fact rows by bitmap instead). An unfiltered dimension adds
// nothing: its build probes the warm engine index.
func TestScanOncePerQuery(t *testing.T) {
	db := starDB(3000)
	cases := []struct {
		where string
		dims  int64 // rows of the filtered dimensions
	}{
		{` AND a_g < 2 AND b_g = 1 AND c_g <> 3`, starA + starB + starC},
		{` AND a_g < 2 AND c_g <> 3 AND c_g <> 4`, starA + starC},
		{` AND b_g = 1 AND sf_m < 50`, starB},
	}
	for _, mode := range []plan.Mode{plan.ForceStar, plan.ForceHashJoin, plan.Auto} {
		e := New(db)
		e.SetMode(mode)
		for _, d := range []string{"a", "b", "c"} {
			e.WarmHashIndex("d"+d, d+"_k")
		}
		for _, c := range cases {
			reg := obs.NewRegistry()
			e.SetMetrics(reg)
			_, tr, err := e.QueryTraced(starJoin + c.where + ` GROUP BY a_g ORDER BY a_g`)
			if err != nil {
				t.Fatal(err)
			}
			if mode == plan.ForceStar && tr.Strategy != plan.StarTransform || mode == plan.ForceHashJoin && tr.Strategy != plan.HashJoinPipeline {
				t.Fatalf("mode %v ran %v", mode, tr.Strategy)
			}
			want := c.dims
			if tr.Strategy == plan.HashJoinPipeline {
				want += 3000
			}
			if got := reg.Counter("exec_rows_scanned").Value(); got != want {
				t.Errorf("mode %v%s: exec_rows_scanned = %d, want %d (each table read once)",
					mode, c.where, got, want)
			}
		}
	}
}

// TestUnfilteredReadsAreCounted pins what the counters mean where no
// filter runs: an operator that reads an unfiltered table itself counts
// its rows as scanned, and a build answered by the engine's index reads
// and hashes rows only in the query that finds the index cold.
func TestUnfilteredReadsAreCounted(t *testing.T) {
	e := New(starDB(3000))
	e.SetMode(plan.ForceHashJoin)
	for run, want := range [][2]int64{{3000 + starA, starA}, {3000, 0}} {
		reg := obs.NewRegistry()
		e.SetMetrics(reg)
		if _, err := e.Query(`SELECT COUNT(*) FROM sf, da WHERE sf_a = a_k`); err != nil {
			t.Fatal(err)
		}
		scanned, built := reg.Counter("exec_rows_scanned").Value(), reg.Counter("exec_hash_build_rows").Value()
		if scanned != want[0] || built != want[1] {
			t.Errorf("run %d: exec_rows_scanned = %d, exec_hash_build_rows = %d; want %d, %d", run, scanned, built, want[0], want[1])
		}
	}
	// A streamed unfiltered table and a filtered build: no index involved.
	reg := obs.NewRegistry()
	e.SetMetrics(reg)
	if _, err := e.Query(`SELECT COUNT(*) FROM sf, db WHERE sf_b = b_k AND b_g = 1`); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("exec_rows_scanned").Value(); got != 3000+starB {
		t.Errorf("filtered driver, streamed fact: exec_rows_scanned = %d, want %d", got, 3000+starB)
	}
}

// profileShape renders a profile tree's node names, one per line,
// indented by depth.
func profileShape(p *obs.OpProfile, depth int, sb *strings.Builder) {
	fmt.Fprintf(sb, "%*s%s\n", 2*depth, "", p.Name)
	for _, c := range p.Children {
		profileShape(c, depth+1, sb)
	}
}

// TestStarPlanDeterministic: the dimensions of a star are visited in
// table order, not Go map order, so 50 executions of one 3-dimension
// star query report one decision (its selectivity is a float product
// over the dimensions), one join order and one profile shape.
func TestStarPlanDeterministic(t *testing.T) {
	query := starJoin + ` AND a_g < 2 AND b_g = 1 AND c_g <> 3 GROUP BY a_g ORDER BY a_g`
	for _, mode := range []plan.Mode{plan.Auto, plan.ForceStar} {
		e := New(starDB(3000))
		e.SetMode(mode)
		e.SetProfiling(true)
		var first Trace
		var firstShape string
		for i := 0; i < 50; i++ {
			_, tr, err := e.QueryTraced(query)
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			profileShape(tr.Profile, 0, &sb)
			if i == 0 {
				first, firstShape = tr, sb.String()
				continue
			}
			if tr.Decision != first.Decision || !slices.Equal(tr.JoinOrder, first.JoinOrder) {
				t.Fatalf("mode %v run %d: decision %+v order %v, first run had %+v %v",
					mode, i, tr.Decision, tr.JoinOrder, first.Decision, first.JoinOrder)
			}
			if sb.String() != firstShape {
				t.Fatalf("mode %v run %d: profile shape\n%sfirst run had\n%s", mode, i, sb.String(), firstShape)
			}
		}
	}
}

// pollCtx is a context cancelled by being asked: its Done channel closes
// on the n-th poll, which puts the cancellation at the n-th of the
// executor's cancellation points instead of at a wall-clock moment.
type pollCtx struct {
	context.Context
	left atomic.Int64
	once sync.Once
	done chan struct{}
}

func newPollCtx(polls int64) *pollCtx {
	c := &pollCtx{Context: context.Background(), done: make(chan struct{})}
	c.left.Store(polls)
	return c
}

func (c *pollCtx) Done() <-chan struct{} {
	if c.left.Add(-1) < 0 {
		c.once.Do(func() { close(c.done) })
	}
	return c.done
}

func (c *pollCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestCancelMidSelectionAndBuild cancels one query at every one of its
// cancellation points in turn — inside the selection scans, the key
// staging, the build, the probes, the aggregation — on a cold engine
// each time, so the lazy engine indexes are being built when the
// cancellation lands. Every run ends in context.Canceled or a full
// result; afterwards no goroutine is left, every index the engine
// published is complete, and the engine answers as a fresh one does.
func TestCancelMidSelectionAndBuild(t *testing.T) {
	// Loops poll once per 1024-row batch or tick, so every table spans
	// several: d2 is unfiltered on an int key (engine index); d1 is
	// filtered, so its build stages pairs from a selection.
	db := randDB(21, 16384, 3000)
	query := `SELECT d1.d_s, COUNT(*) c, SUM(f_m) m FROM f, d d1, d d2
		WHERE f_k = d1.d_k AND f_v = d2.d_k AND d1.d_g >= 0 AND f_o >= 10 GROUP BY d1.d_s ORDER BY d1.d_s`
	newEngine := func() *Engine { return New(db) }
	want, err := newEngine().Query(query)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	cancelled := 0
	for polls := int64(0); ; polls++ {
		e := newEngine()
		res, err := e.QueryContext(newPollCtx(polls), query)
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at poll %d: %v", polls, err)
		}
		// Whatever the cancelled query left in the engine's index cache is
		// a whole index over the current table.
		e.mu.Lock()
		for key, c := range e.aux {
			ix, ok := c.v.(*index.HashIndex)
			if !ok {
				continue
			}
			tab := db.Table(key.table)
			vals, nulls := tab.ScanInt64(key.col)
			fresh := index.BuildHashIndex(vals, nulls)
			if ix.NumRows() != tab.NumRows() || ix.DistinctKeys() != fresh.DistinctKeys() {
				t.Errorf("poll %d: published index %s.%d covers %d rows / %d keys, table has %d / %d",
					polls, key.table, key.col, ix.NumRows(), ix.DistinctKeys(), tab.NumRows(), fresh.DistinctKeys())
			}
			for _, v := range vals {
				if !slices.Equal(ix.Lookup(v), fresh.Lookup(v)) {
					t.Fatalf("poll %d: published index %s.%d disagrees with a fresh build on key %d", polls, key.table, key.col, v)
				}
			}
		}
		e.mu.Unlock()
		// The engine a cancellation went through still answers correctly.
		again, qerr := e.Query(query)
		if qerr != nil {
			t.Fatalf("after cancellation at poll %d: %v", polls, qerr)
		}
		assertSameResult(t, fmt.Sprintf("after cancellation at poll %d", polls), want, again)
		if err == nil {
			assertSameResult(t, "uncancelled", want, res)
			break
		}
		cancelled++
	}
	if cancelled < 100 {
		t.Errorf("only %d cancellation points reached; the query is too small to land inside the scans and builds", cancelled)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
