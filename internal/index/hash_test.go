package index

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refHashIndex is the layout HashIndex had before the open-addressed
// one — a map entry and a slice per key — kept as the oracle.
func refHashIndex(vals []int64, nulls []bool) map[int64][]int32 {
	ref := map[int64][]int32{}
	for i, v := range vals {
		if nulls == nil || !nulls[i] {
			ref[v] = append(ref[v], int32(i))
		}
	}
	return ref
}

// hashColumns are key columns of the shapes the engine indexes, plus
// the ones an open-addressed table could get wrong.
func hashColumns() map[string][]int64 {
	rng := rand.New(rand.NewSource(1))
	cols := map[string][]int64{
		"empty":     {},
		"one":       {42},
		"same":      make([]int64, 1000), // one key, NULLs aside
		"extremes":  {math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64, 0},
		"surrogate": make([]int64, 5000), // 1..n, every key once
		"shuffled":  make([]int64, 5000), // 1..n in random order
		"minbase":   make([]int64, 2000), // MinInt64.., every key once
		"negbase":   make([]int64, 2000), // -1000..999
		"densedup":  make([]int64, 2000), // max-min = n-1, but one key twice and one missing
		"foreign":   make([]int64, 5000), // few keys, many rows each
		"negative":  make([]int64, 3000),
		"sparse":    make([]int64, 3000), // random over the whole int64 range
		"strided":   make([]int64, 4096), // multiples of a power of two: equal low bits
		"highbits":  make([]int64, 4096), // differ only above bit 40
	}
	for i := range cols["surrogate"] {
		cols["surrogate"][i] = int64(i + 1)
		cols["foreign"][i] = rng.Int63n(37)
	}
	for i, p := range rng.Perm(len(cols["shuffled"])) {
		cols["shuffled"][i] = int64(p + 1)
	}
	for i := range cols["minbase"] {
		cols["minbase"][i] = math.MinInt64 + int64(i)
		cols["negbase"][i] = int64(i) - 1000
		cols["densedup"][i] = int64(i)
	}
	cols["densedup"][700] = 1300
	for i := range cols["negative"] {
		cols["negative"][i] = -rng.Int63n(500)
		cols["sparse"][i] = int64(rng.Uint64())
	}
	for i := range cols["strided"] {
		cols["strided"][i] = int64(i%1024) << 16
		cols["highbits"][i] = int64(i%512) << 40
	}
	return cols
}

// TestHashIndexEqualsMap: for every column shape, with and without
// NULLs (and without NULLs both with no null vector, as storage keeps a
// column that never held one, and with a vector that holds none, as it
// keeps one whose NULLs were deleted or overwritten), the index answers exactly as a map[int64][]int32 built in row
// order does — same keys, same row ids, ascending per key — and absent
// keys (the neighbours of every present key included) find nothing.
func TestHashIndexEqualsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for name, vals := range hashColumns() {
		for _, nullEvery := range []int{-1, 0, 1, 3} { // -1: no null vector
			var nulls []bool
			if nullEvery >= 0 {
				nulls = make([]bool, len(vals))
				for i := range nulls {
					nulls[i] = nullEvery > 0 && rng.Intn(nullEvery) == 0
				}
			}
			ix := BuildHashIndex(vals, nulls)
			ref := refHashIndex(vals, nulls)
			if ix.NumRows() != len(vals) || ix.DistinctKeys() != len(ref) {
				t.Fatalf("%s/nulls=%d: NumRows %d DistinctKeys %d, want %d %d",
					name, nullEvery, ix.NumRows(), ix.DistinctKeys(), len(vals), len(ref))
			}
			// The pairs form over the same non-NULL (key, row id) list is the
			// same index.
			var keys []int64
			var rows []int32
			for i, v := range vals {
				if nulls == nil || !nulls[i] {
					keys, rows = append(keys, v), append(rows, int32(i))
				}
			}
			pairs := BuildHashIndexPairs(keys, rows)
			if pairs.NumRows() != len(keys) || pairs.DistinctKeys() != len(ref) {
				t.Fatalf("%s/nulls=%d: pairs NumRows %d DistinctKeys %d, want %d %d",
					name, nullEvery, pairs.NumRows(), pairs.DistinctKeys(), len(keys), len(ref))
			}
			for key, want := range ref {
				if got := pairs.Lookup(key); !slices.Equal(got, want) {
					t.Fatalf("%s/nulls=%d: pairs Lookup(%d) = %v, want %v", name, nullEvery, key, got, want)
				}
				if got := ix.Lookup(key); !slices.Equal(got, want) {
					t.Fatalf("%s/nulls=%d: Lookup(%d) = %v, want %v", name, nullEvery, key, got, want)
				}
				if got := ix.First(key); got != want[0] {
					t.Fatalf("%s/nulls=%d: First(%d) = %d, want %d", name, nullEvery, key, got, want[0])
				}
				for _, absent := range []int64{key - 1, key + 1, ^key} {
					if _, present := ref[absent]; present {
						continue
					}
					if got := ix.Lookup(absent); got != nil || ix.First(absent) != -1 {
						t.Fatalf("%s/nulls=%d: absent key %d found: %v", name, nullEvery, absent, got)
					}
				}
			}
		}
	}
}

// TestPositionalForm: exactly the columns whose non-NULL keys are all
// present, all different and consecutive get the slot-free form, in
// either constructor; one NULL or one repeated key inside a range that
// looks dense keeps the table. (What either form answers is
// TestHashIndexEqualsMap's business.)
func TestPositionalForm(t *testing.T) {
	cols := hashColumns()
	for name, want := range map[string]bool{
		"one": true, "surrogate": true, "shuffled": true, "minbase": true, "negbase": true,
		"empty": false, "same": false, "extremes": false, "foreign": false, "densedup": false, "sparse": false,
	} {
		vals := cols[name]
		if got := BuildHashIndex(vals, make([]bool, len(vals))).slots == nil; got != want {
			t.Errorf("%s: positional = %v, want %v", name, got, want)
		}
	}
	vals := cols["surrogate"]
	nulls := make([]bool, len(vals))
	nulls[len(vals)/2] = true
	ix := BuildHashIndex(vals, nulls)
	if ix.slots == nil {
		t.Fatal("a column with a NULL key went positional")
	}
	if ix.First(vals[len(vals)/2]) != -1 || ix.First(vals[0]) != 0 || ix.DistinctKeys() != len(vals)-1 {
		t.Error("the NULL row is indexed, or its neighbours are not")
	}
	// Pairs whose row ids are a permutation: the id, not the position,
	// is what the positional form stores.
	rows := make([]int32, len(vals))
	for i, p := range rand.New(rand.NewSource(3)).Perm(len(vals)) {
		rows[i] = int32(p)
	}
	pairs := BuildHashIndexPairs(vals, rows)
	if pairs.slots != nil {
		t.Fatal("dense pairs kept the slot table")
	}
	for i, v := range vals {
		if got := pairs.Lookup(v); len(got) != 1 || got[0] != rows[i] || pairs.First(v) != rows[i] {
			t.Fatalf("pairs Lookup(%d) = %v, want [%d]", v, got, rows[i])
		}
	}
	if pairs.Lookup(0) != nil || pairs.First(int64(len(vals))+1) != -1 || pairs.Lookup(math.MinInt64) != nil {
		t.Error("a key outside the range found a row")
	}
}

// TestBuildHashIndexAllocations: the index is a fixed number of heap
// objects however many rows and keys it covers.
func TestBuildHashIndexAllocations(t *testing.T) {
	var perSize []float64
	for _, n := range []int{100, 10_000, 200_000} {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(i / 2)
		}
		nulls := make([]bool, n)
		perSize = append(perSize, testing.AllocsPerRun(3, func() { BuildHashIndex(vals, nulls) }))
	}
	if perSize[0] > 3 || perSize[1] != perSize[0] || perSize[2] != perSize[0] {
		t.Errorf("allocations per build at 100 / 10k / 200k rows = %v, want the same ≤3", perSize)
	}
}

var sinkIndex *HashIndex

// BenchmarkBuildHashIndex builds the index the load test builds first:
// a dense surrogate key of customer_demographics' size.
func BenchmarkBuildHashIndex(b *testing.B) {
	vals := make([]int64, 1_920_800)
	for i := range vals {
		vals[i] = int64(i + 1)
	}
	nulls := make([]bool, len(vals))
	b.SetBytes(int64(8 * len(vals)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkIndex = BuildHashIndex(vals, nulls)
	}
}
