package exec

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

// statsDB builds a database with one single-column integer table.
func statsDB(name, col string, vals []storage.Value) (*storage.DB, *storage.Table) {
	db := storage.NewDB()
	t := db.Create(&schema.Table{
		Name: name, Kind: schema.Dimension,
		Columns: []schema.Column{{Name: col, Type: schema.Integer, Nullable: true}},
	})
	for _, v := range vals {
		t.Append([]storage.Value{v})
	}
	return db, t
}

// TestColumnStatsAllNullInvalid is the regression test for the
// statistics validity bug: an integer column holding only NULLs (or no
// rows at all) has no min/max, and marking it valid fed a fabricated
// min=max=0 domain into selectivity estimation.
func TestColumnStatsAllNullInvalid(t *testing.T) {
	qc := &qctx{ctx: context.Background()}

	db, tab := statsDB("n", "c", []storage.Value{storage.Null, storage.Null, storage.Null})
	e := New(db)
	if st := e.columnStats(qc, tab, 0); st.valid {
		t.Fatalf("all-NULL column reported valid stats: %+v", st)
	}

	db, tab = statsDB("empty", "c", nil)
	e = New(db)
	if st := e.columnStats(qc, tab, 0); st.valid {
		t.Fatalf("empty column reported valid stats: %+v", st)
	}

	// Sanity: one non-NULL value is enough to be valid.
	db, tab = statsDB("one", "c", []storage.Value{storage.Null, storage.Int(7)})
	e = New(db)
	st := e.columnStats(qc, tab, 0)
	if !st.valid || st.min != 7 || st.max != 7 || st.distinct != 1 || st.nonNull != 1 {
		t.Fatalf("single-value column stats wrong: %+v", st)
	}
}

// TestColumnStatsDistinctEqualsMap: the distinct count is the size of
// the set of non-NULL values whichever way it was counted — over a
// narrow range (bitmap), a range just past the switch, the whole int64
// range and a negative base (map).
func TestColumnStatsDistinctEqualsMap(t *testing.T) {
	qc := &qctx{ctx: context.Background()}
	rng := rand.New(rand.NewSource(1))
	const rows = 4000
	for name, draw := range map[string]func() int64{
		"keys":     func() int64 { return 1 + rng.Int63n(rows) },
		"few":      func() int64 { return rng.Int63n(7) - 3 },
		"atswitch": func() int64 { return rng.Int63n(8*rows + 1025) },
		"wide":     func() int64 { return int64(rng.Uint64()) },
		"negative": func() int64 { return math.MinInt64 + rng.Int63n(3*rows) },
	} {
		vals := make([]storage.Value, rows)
		want := map[int64]struct{}{}
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for i := range vals {
			if rng.Intn(10) == 0 {
				continue // zero Value: NULL
			}
			v := draw()
			if name == "wide" && i < 2 {
				v = []int64{math.MinInt64, math.MaxInt64}[i]
			}
			vals[i] = storage.Int(v)
			want[v] = struct{}{}
			lo, hi = min(lo, v), max(hi, v)
		}
		db, tab := statsDB(name, "c", vals)
		st := New(db).columnStats(qc, tab, 0)
		if !st.valid || st.distinct != len(want) || st.min != lo || st.max != hi {
			t.Errorf("%s: distinct %d min %d max %d, want %d %d %d", name, st.distinct, st.min, st.max, len(want), lo, hi)
		}
	}
}

// TestColumnStatsRefreshAfterSameSizeMutation is the regression test
// for the stale-cache bug: freshness used to be a row-count comparison,
// so maintenance that mutates values without changing the row count
// (UPDATE, or DELETE+INSERT of equal size) kept serving stale
// statistics. The per-table epoch makes any mutation visible.
func TestColumnStatsRefreshAfterSameSizeMutation(t *testing.T) {
	qc := &qctx{ctx: context.Background()}
	db, tab := statsDB("m", "c", []storage.Value{storage.Int(1), storage.Int(2), storage.Int(3)})
	e := New(db)

	st := e.columnStats(qc, tab, 0)
	if !st.valid || st.max != 3 {
		t.Fatalf("initial stats wrong: %+v", st)
	}

	// Mutate a value in place: row count is unchanged.
	tab.SetValue(2, 0, storage.Int(100))
	if tab.NumRows() != 3 {
		t.Fatalf("row count changed: %d", tab.NumRows())
	}
	st = e.columnStats(qc, tab, 0)
	if st.max != 100 {
		t.Fatalf("stats stale after same-size mutation: max = %d, want 100", st.max)
	}

	// Unchanged table: the cached entry (same epoch) is reused.
	again := e.columnStats(qc, tab, 0)
	if again != st {
		t.Fatalf("cache miss on unchanged table: %+v vs %+v", again, st)
	}
}

// TestStatsCacheKeyNoCollision is the regression test for the cache-key
// bug: a concatenated "table#stats#column" string key lets the pair
// (table "a#stats#b", column "c") collide with (table "a", column
// "b#stats#c"). The struct key keeps them distinct.
func TestStatsCacheKeyNoCollision(t *testing.T) {
	qc := &qctx{ctx: context.Background()}
	db := storage.NewDB()
	t1 := db.Create(&schema.Table{
		Name: "a#stats#b", Kind: schema.Dimension,
		Columns: []schema.Column{{Name: "c", Type: schema.Integer}},
	})
	t1.Append([]storage.Value{storage.Int(111)})
	t2 := db.Create(&schema.Table{
		Name: "a", Kind: schema.Dimension,
		Columns: []schema.Column{{Name: "b#stats#c", Type: schema.Integer}},
	})
	t2.Append([]storage.Value{storage.Int(222)})
	e := New(db)

	s1 := e.columnStats(qc, t1, 0)
	s2 := e.columnStats(qc, t2, 0)
	if s1.min != 111 || s2.min != 222 {
		t.Fatalf("colliding keys mixed up stats: %+v vs %+v", s1, s2)
	}
	// Both entries must coexist in the cache.
	s1b := e.columnStats(qc, t1, 0)
	if s1b != s1 {
		t.Fatalf("first entry evicted by the second: %+v vs %+v", s1b, s1)
	}
}
