package exec

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tpcds/internal/obs"
	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

// refHashPart is the int-key join build side the executor had before it
// adopted index.HashIndex — a map entry and a row-id slice per key,
// filled by add in build order — kept as the oracle the flat table is
// diffed against.
type refHashPart struct {
	ints map[int64][]int32
}

func (hp *refHashPart) add(key int64, r int32) {
	hp.ints[key] = append(hp.ints[key], r)
}

// joinKeyColumn draws n join keys of the shapes a hash table could get
// wrong: heavy duplicates, NULLs, negatives, the int64 extremes and keys
// sparse over the whole range.
func joinKeyColumn(n int, seed int64) (ints []int64, nulls []bool) {
	rng := rand.New(rand.NewSource(seed))
	pool := []int64{math.MinInt64, math.MinInt64 + 1, -1 << 40, -7, -1, 0, 1, 2, 3, 1 << 40, math.MaxInt64}
	for i := 0; i < 40; i++ {
		pool = append(pool, int64(rng.Uint64()))
	}
	ints, nulls = make([]int64, n), make([]bool, n)
	for i := range ints {
		ints[i] = pool[rng.Intn(len(pool))]
		nulls[i] = rng.Intn(10) == 0
	}
	return ints, nulls
}

// probeEvery probes ht, through a key column holding every key of ref,
// the neighbours of each (absent unless drawn) and a NULL, and requires
// the reference's row-id list for each: read directly and through an id
// vector (every row backwards, then an outer miss), and the same again
// on the column without its NULL row, which has no null vector.
func probeEvery(t *testing.T, label string, ht *hashTable, ref *refHashPart) {
	t.Helper()
	var keys []int64
	for k := range ref.ints {
		keys = append(keys, k, k-1, k+1, ^k)
	}
	nulls := make([]bool, len(keys)+1)
	keys, nulls[len(keys)] = append(keys, 0), true
	for _, col := range []colReader{
		{kind: storage.KindInt, ints: keys, nulls: nulls},
		{kind: storage.KindInt, ints: keys[:len(keys)-1]},
	} {
		backwards := make([]int32, len(col.ints)+1)
		for i := range col.ints {
			backwards[i] = int32(len(col.ints) - 1 - i)
		}
		backwards[len(col.ints)] = -1
		for _, ks := range []keySource{{col: col}, {ids: backwards, col: col}} {
			n := len(col.ints)
			if ks.ids != nil {
				n = len(ks.ids)
			}
			probe := ht.prober([]keySource{ks})
			for i := 0; i < n; i++ {
				r := ks.row(int32(i))
				var want []int32
				if r >= 0 && !col.null(r) {
					want = ref.ints[keys[r]]
				}
				if got := probe(int32(i)); !slices.Equal(got, want) {
					t.Fatalf("%s: probe of row %d (ids %v, nulls %v) = %v, reference map has %v", label, r, ks.ids != nil, col.nulls != nil, got, want)
				}
			}
		}
	}
}

// TestHashTableEqualsMapBuild: over duplicate, NULL, negative, MinInt64
// and sparse keys, the flat build side lists exactly the row ids the
// map build did, in the same order — for a whole table, for a
// selection of it, and for the stream join's build over an intermediate
// result read through an id vector with outer-miss (-1) rows.
func TestHashTableEqualsMapBuild(t *testing.T) {
	e := New(storage.NewDB())
	qc := e.newQctx(context.Background())
	ints, nulls := joinKeyColumn(5000, 1)
	col := colReader{kind: storage.KindInt, ints: ints, nulls: nulls}
	noNulls := colReader{kind: storage.KindInt, ints: ints} // a column that never held a NULL

	every3 := &selection{}
	for r := 0; r < len(ints); r += 3 {
		every3.ids = append(every3.ids, int32(r))
	}
	every3.n = len(every3.ids)
	// The intermediate: 3000 positions over random table rows, one in
	// eight an outer miss.
	rng := rand.New(rand.NewSource(2))
	through := make([]int32, 3000)
	for i := range through {
		through[i] = int32(rng.Intn(len(ints)))
		if rng.Intn(8) == 0 {
			through[i] = -1
		}
	}
	cases := []struct {
		name string
		ks   keySource
		sel  *selection
	}{
		{"table", keySource{col: col}, &selection{n: len(ints), all: true}},
		{"selection", keySource{col: col}, every3},
		{"intermediate", keySource{ids: through, col: col}, &selection{n: len(through), all: true}},
		{"table without NULLs", keySource{col: noNulls}, &selection{n: len(ints), all: true}},
		{"intermediate without NULLs", keySource{ids: through, col: noNulls}, &selection{n: len(through), all: true}},
	}
	for _, c := range cases {
		ref := &refHashPart{ints: map[int64][]int32{}}
		hashed := 0
		for i := 0; i < c.sel.n; i++ {
			pos := c.sel.at(i)
			r := pos
			if c.ks.ids != nil {
				r = c.ks.ids[pos]
			}
			if r >= 0 && !c.ks.col.null(r) {
				ref.add(ints[r], pos)
				hashed++
			}
		}
		ht, built := newHashTable(qc, []keySource{c.ks}, true, c.sel)
		if built != hashed || ht.ints == nil {
			t.Fatalf("%s: hashed %d rows, want %d rows in an int table", c.name, built, hashed)
		}
		probeEvery(t, c.name, ht, ref)
	}
}

// keyJoinDB is a probe-side fact p and a build-side table q joined on
// joinKeyColumn keys; p_o and q_o number the rows. q's primary key is
// q_o, so p ⋈ q on the key columns is never star shaped.
func keyJoinDB(pRows, qRows int) *storage.DB {
	db := storage.NewDB()
	mk := func(name string, kind schema.Kind, n int, seed int64) {
		t := db.Create(&schema.Table{
			Name: name, Kind: kind,
			Columns: []schema.Column{
				{Name: name + "_k", Type: schema.Identifier, Nullable: true},
				{Name: name + "_o", Type: schema.Identifier},
			},
			PrimaryKey: []string{name + "_o"},
		})
		ints, nulls := joinKeyColumn(n, seed)
		for i := range ints {
			k := storage.Value(storage.Int(ints[i]))
			if nulls[i] {
				k = storage.Null
			}
			t.Append([]storage.Value{k, storage.Int(int64(i))})
		}
	}
	mk("p", schema.Fact, pRows, 3)
	mk("q", schema.Dimension, qRows, 3) // same pool: the keys meet
	return db
}

// TestHashTableJoinsEqualMapJoins runs the three joins that read the
// flat table — probe (engine-cached index and built-from-selection),
// stream and LEFT — and requires exactly the rows, in exactly the
// order, a nested reference join through the map build produces.
func TestHashTableJoinsEqualMapJoins(t *testing.T) {
	db := keyJoinDB(2*batchLen+7, 300)
	p, q := db.Table("p"), db.Table("q")
	refJoin := func(pKeep, qKeep func(o int64) bool, left bool) [][]storage.Value {
		part := &refHashPart{ints: map[int64][]int32{}}
		for j := 0; j < q.NumRows(); j++ {
			if k := q.Get(j, 0); !k.IsNull() && qKeep(int64(j)) {
				part.add(k.AsInt(), int32(j))
			}
		}
		var out [][]storage.Value
		for i := 0; i < p.NumRows(); i++ {
			if !pKeep(int64(i)) {
				continue
			}
			var matches []int32
			if k := p.Get(i, 0); !k.IsNull() {
				matches = part.ints[k.AsInt()]
			}
			for _, j := range matches {
				out = append(out, []storage.Value{storage.Int(int64(i)), storage.Int(int64(j))})
			}
			if left && len(matches) == 0 {
				out = append(out, []storage.Value{storage.Int(int64(i)), storage.Null})
			}
		}
		return out
	}
	all := func(int64) bool { return true }
	cases := []struct {
		name, query, op string
		want            [][]storage.Value
	}{
		{"probe/cached index", `SELECT p_o, q_o FROM p, q WHERE p_k = q_k`, "probe q", refJoin(all, all, false)},
		{"probe/selection", `SELECT p_o, q_o FROM p, q WHERE p_k = q_k AND q_o >= 7`, "probe q",
			refJoin(all, func(o int64) bool { return o >= 7 }, false)},
		{"stream", `SELECT p_o, q_o FROM p, q WHERE p_k = q_k AND p_o < 20`, "stream q",
			refJoin(func(o int64) bool { return o < 20 }, all, false)},
		{"stream/selection", `SELECT p_o, q_o FROM p, q WHERE p_k = q_k AND p_o < 20 AND q_o >= 7`, "stream q",
			refJoin(func(o int64) bool { return o < 20 }, func(o int64) bool { return o >= 7 }, false)},
		{"left", `SELECT p_o, q_o FROM p LEFT OUTER JOIN q ON p_k = q_k`, "left q", refJoin(all, all, true)},
	}
	e := New(db)
	e.SetProfiling(true)
	for _, c := range cases {
		res, tr, err := e.QueryTraced(c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ran := false
		tr.Profile.Walk(func(n *obs.OpProfile) { ran = ran || n.Name == c.op })
		if !ran {
			t.Fatalf("%s: no %q operator ran\n%s", c.name, c.op, tr.Profile)
		}
		assertSameResult(t, c.name, &Result{Columns: res.Columns, Rows: c.want}, res)
	}
	if _, cached := e.hashIdx["q.q_k"]; !cached {
		t.Error("the unfiltered build of q did not go through the engine's index on q_k")
	}
}

var sinkMatches int

// BenchmarkBuildProbe builds a join build side of date_dim's size on a
// surrogate key and probes it with a fact's worth of foreign keys: the
// flat table the executor uses against the map build it replaced.
func BenchmarkBuildProbe(b *testing.B) {
	const buildRows, probeRows = 73_049, 288_000
	rng := rand.New(rand.NewSource(1))
	build := colReader{kind: storage.KindInt, ints: make([]int64, buildRows)} // keys without NULLs
	for i := range build.ints {
		build.ints[i] = int64(2415022 + i)
	}
	probe := colReader{kind: storage.KindInt, ints: make([]int64, probeRows)}
	for i := range probe.ints {
		probe.ints[i] = int64(2415022 + rng.Intn(buildRows+buildRows/10)) // one in eleven misses
	}
	bks, pks := []keySource{{col: build}}, []keySource{{col: probe}}
	sel := &selection{n: buildRows, all: true}
	qc := New(storage.NewDB()).newQctx(context.Background())
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ht, _ := newHashTable(qc, bks, true, sel)
			matchesOf := ht.prober(pks)
			for r := int32(0); r < probeRows; r++ {
				m := matchesOf(r)
				sinkMatches += len(m)
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			part := &refHashPart{ints: map[int64][]int32{}}
			for r := int32(0); r < buildRows; r++ {
				if k, ok := bks[0].intAt(r); ok {
					part.add(k, r)
				}
			}
			for r := int32(0); r < probeRows; r++ {
				if k, ok := pks[0].intAt(r); ok {
					sinkMatches += len(part.ints[k])
				}
			}
		}
	})
}
