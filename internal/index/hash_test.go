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
		if !nulls[i] {
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
// NULLs, the index answers exactly as a map[int64][]int32 built in row
// order does — same keys, same row ids, ascending per key — and absent
// keys (the neighbours of every present key included) find nothing.
func TestHashIndexEqualsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for name, vals := range hashColumns() {
		for _, nullEvery := range []int{0, 1, 3} {
			nulls := make([]bool, len(vals))
			for i := range nulls {
				nulls[i] = nullEvery > 0 && rng.Intn(nullEvery) == 0
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
				if !nulls[i] {
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
