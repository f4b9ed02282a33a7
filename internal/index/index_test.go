package index

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(130)
	if b.Len() != 130 || b.Count() != 0 {
		t.Fatal("fresh bitmap not empty")
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if b.Count() != 3 {
		t.Fatalf("Count = %d, want 3", b.Count())
	}
	if !b.Get(64) || b.Get(63) {
		t.Error("Get broken across word boundary")
	}
	if got := b.Rows(); len(got) != 3 || got[0] != 0 || got[1] != 64 || got[2] != 129 {
		t.Errorf("Rows = %v", got)
	}
}

func TestBitmapAndOr(t *testing.T) {
	a := NewBitmap(100)
	b := NewBitmap(100)
	a.Set(1)
	a.Set(50)
	a.Set(99)
	b.Set(50)
	b.Set(99)
	b.Set(2)
	ab := a.Clone()
	ab.And(b)
	if got := ab.Rows(); len(got) != 2 || got[0] != 50 || got[1] != 99 {
		t.Errorf("And rows = %v", got)
	}
	ob := a.Clone()
	ob.Or(b)
	if ob.Count() != 4 {
		t.Errorf("Or count = %d, want 4", ob.Count())
	}
	// a itself unchanged by Clone-based ops.
	if a.Count() != 3 {
		t.Error("Clone did not isolate mutation")
	}
}

func TestBitmapCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("And with mismatched capacity did not panic")
		}
	}()
	NewBitmap(10).And(NewBitmap(11))
}

func TestBitmapFillAll(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 130} {
		b := NewBitmap(n)
		b.FillAll()
		if b.Count() != n {
			t.Errorf("FillAll(%d).Count = %d", n, b.Count())
		}
	}
}

func TestBitmapForEachEarlyStop(t *testing.T) {
	b := NewBitmap(100)
	for i := 0; i < 100; i += 10 {
		b.Set(i)
	}
	var visited int
	b.ForEach(func(i int) bool {
		visited++
		return visited < 3
	})
	if visited != 3 {
		t.Errorf("ForEach visited %d after early stop, want 3", visited)
	}
}

func TestBitmapIndex(t *testing.T) {
	vals := []int64{5, 7, 5, 9, 7, 5}
	nulls := []bool{false, false, false, false, false, true}
	ix := BuildBitmapIndex(vals, nulls)
	if ix.NumRows() != 6 {
		t.Errorf("NumRows = %d", ix.NumRows())
	}
	if ix.DistinctKeys() != 3 {
		t.Errorf("DistinctKeys = %d, want 3 (null not counted)", ix.DistinctKeys())
	}
	if got := ix.Lookup(5).Rows(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Lookup(5) = %v (row 5 is NULL and must be excluded)", got)
	}
	if ix.Lookup(404) != nil {
		t.Error("Lookup of absent key should be nil")
	}
	union := ix.UnionOf([]int64{5, 9, 404})
	if got := union.Rows(); len(got) != 3 {
		t.Errorf("UnionOf = %v", got)
	}
}

func TestHashIndex(t *testing.T) {
	vals := []int64{1, 2, 1, 3}
	nulls := []bool{false, false, false, true}
	ix := BuildHashIndex(vals, nulls)
	if ix.DistinctKeys() != 2 {
		t.Errorf("DistinctKeys = %d, want 2", ix.DistinctKeys())
	}
	if got := ix.Lookup(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Lookup(1) = %v", got)
	}
	if ix.First(2) != 1 || ix.First(404) != -1 {
		t.Error("First broken")
	}
	if ix.Lookup(404) != nil || ix.Lookup(3) != nil {
		t.Error("Lookup of an absent or NULL-only key should be nil")
	}
	if ix.NumRows() != 4 {
		t.Errorf("NumRows = %d, want 4 (NULL rows are counted, not indexed)", ix.NumRows())
	}
}

func TestSortedIndexRange(t *testing.T) {
	vals := []int64{50, 10, 30, 20, 40, 30}
	nulls := []bool{false, false, false, false, false, false}
	ix := BuildSortedIndex(vals, nulls)
	got := ix.Range(20, 40)
	// Keys 20,30,30,40 -> rows 3,2,5,4 in key order.
	want := []int32{3, 2, 5, 4}
	if len(got) != len(want) {
		t.Fatalf("Range = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range = %v, want %v", got, want)
		}
	}
	if len(ix.Range(100, 200)) != 0 {
		t.Error("out-of-range query should be empty")
	}
	if len(ix.Range(40, 20)) != 0 {
		t.Error("inverted range should be empty")
	}
	bm := ix.RangeBitmap(20, 40)
	if bm.Count() != 4 || !bm.Get(2) || !bm.Get(3) || !bm.Get(4) || !bm.Get(5) {
		t.Errorf("RangeBitmap rows = %v", bm.Rows())
	}
	min, max, ok := ix.MinMax()
	if !ok || min != 10 || max != 50 {
		t.Errorf("MinMax = %d,%d,%v", min, max, ok)
	}
}

func TestSortedIndexSkipsNulls(t *testing.T) {
	ix := BuildSortedIndex([]int64{1, 0, 3}, []bool{false, true, false})
	if got := ix.Range(0, 10); len(got) != 2 {
		t.Errorf("Range over null-bearing column = %v", got)
	}
	empty := BuildSortedIndex(nil, nil)
	if _, _, ok := empty.MinMax(); ok {
		t.Error("empty MinMax should report !ok")
	}
}

// Property: for any key set, the bitmap index lookup reproduces a linear
// scan.
func TestQuickBitmapIndexEquivalence(t *testing.T) {
	f := func(data []uint8, probe uint8) bool {
		vals := make([]int64, len(data))
		nulls := make([]bool, len(data))
		for i, d := range data {
			vals[i] = int64(d % 7)
		}
		ix := BuildBitmapIndex(vals, nulls)
		key := int64(probe % 7)
		var want []int
		for i, v := range vals {
			if v == key {
				want = append(want, i)
			}
		}
		bm := ix.Lookup(key)
		if bm == nil {
			return len(want) == 0
		}
		got := bm.Rows()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: And/Or counts obey inclusion-exclusion.
func TestQuickInclusionExclusion(t *testing.T) {
	f := func(aa, bb []bool) bool {
		n := len(aa)
		if len(bb) < n {
			n = len(bb)
		}
		a, b := NewBitmap(n), NewBitmap(n)
		for i := 0; i < n; i++ {
			if aa[i] {
				a.Set(i)
			}
			if bb[i] {
				b.Set(i)
			}
		}
		and := a.Clone()
		and.And(b)
		or := a.Clone()
		or.Or(b)
		return a.Count()+b.Count() == and.Count()+or.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: sorted-index range equals a filter scan.
func TestQuickSortedRangeEquivalence(t *testing.T) {
	f := func(data []int16, lo, hi int16) bool {
		if lo > hi {
			lo, hi = hi, lo
		}
		vals := make([]int64, len(data))
		nulls := make([]bool, len(data))
		for i, d := range data {
			vals[i] = int64(d)
		}
		ix := BuildSortedIndex(vals, nulls)
		got := ix.Range(int64(lo), int64(hi))
		seen := map[int32]bool{}
		for _, r := range got {
			seen[r] = true
		}
		count := 0
		for i, v := range vals {
			in := v >= int64(lo) && v <= int64(hi)
			if in {
				count++
			}
			if in != seen[int32(i)] {
				return false
			}
		}
		return count == len(got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBitmapAnd(b *testing.B) {
	x := NewBitmap(1 << 20)
	y := NewBitmap(1 << 20)
	for i := 0; i < 1<<20; i += 3 {
		x.Set(i)
	}
	for i := 0; i < 1<<20; i += 5 {
		y.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z := x.Clone()
		z.And(y)
	}
}

// TestBitmapIndexUpTo: with maxKeys at least the column's distinct
// non-NULL values BuildBitmapIndexUpTo builds what BuildBitmapIndex
// does, keys in first-seen order and NULL rows apart; one key fewer and
// it gives up.
func TestBitmapIndexUpTo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	values := []int64{math.MinInt64, -3, 0, 7, 1 << 40, math.MaxInt64}
	n := 700
	vals, nulls := make([]int64, n), make([]bool, n)
	for i := range vals {
		if rng.Intn(6) == 0 {
			nulls[i] = true
			continue
		}
		vals[i] = values[rng.Intn(len(values))]
	}
	want := BuildBitmapIndex(vals, nulls)
	got := BuildBitmapIndexUpTo(vals, nulls, len(values))
	if got == nil {
		t.Fatal("nil index at maxKeys = distinct values")
	}
	if !reflect.DeepEqual(got.Keys(), want.Keys()) || len(want.Keys()) != len(values) || !got.Nulls().Equal(want.Nulls()) || got.Nulls().Count() == 0 {
		t.Errorf("keys %v nulls %d, want %v nulls %d", got.Keys(), got.Nulls().Count(), want.Keys(), want.Nulls().Count())
	}
	for _, k := range want.Keys() {
		if !got.Lookup(k).Equal(want.Lookup(k)) {
			t.Errorf("key %d rows differ", k)
		}
	}
	if BuildBitmapIndexUpTo(vals, nulls, len(values)-1) != nil {
		t.Error("an index past maxKeys")
	}
}

// TestCodeIndex: a dictionary column indexed by code; codes no row
// holds get no bitmap, and a NULL row's code is ignored.
func TestCodeIndex(t *testing.T) {
	codes := []uint16{2, 0, 2, 0, 3}
	nulls := []bool{false, true, false, false, false}
	ix := BuildCodeIndex(codes, nulls, 5)
	if !reflect.DeepEqual(ix.Keys(), []int64{0, 2, 3}) {
		t.Errorf("Keys = %v, want [0 2 3]", ix.Keys())
	}
	for key, rows := range map[int64][]int{0: {3}, 2: {0, 2}, 3: {4}} {
		if got := ix.Lookup(key).Rows(); !reflect.DeepEqual(got, rows) {
			t.Errorf("code %d: rows %v, want %v", key, got, rows)
		}
	}
	if got := ix.Nulls().Rows(); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("NULL rows %v, want [1]", got)
	}
}

// TestAndAnyAndAppendIDs: AndAny keeps the rows set in b and in any of
// the others and leaves the others alone; AppendIDs lists what Rows
// lists.
func TestAndAnyAndAppendIDs(t *testing.T) {
	b, x, y := NewBitmap(200), NewBitmap(200), NewBitmap(200)
	for i := 0; i < 200; i += 3 {
		b.Set(i)
	}
	x.Set(3)
	x.Set(64)
	y.Set(150)
	y.Set(199)
	xw, yw := x.Clone(), y.Clone()
	b.AndAny([]*Bitmap{x, y})
	if got := b.AppendIDs(nil); !reflect.DeepEqual(got, []int32{3, 150}) {
		t.Errorf("AndAny rows %v, want [3 150]", got)
	}
	if !x.Equal(xw) || !y.Equal(yw) {
		t.Error("AndAny wrote to an operand")
	}
	b.AndAny(nil)
	if b.Count() != 0 {
		t.Error("AndAny with no operand must empty the bitmap")
	}
	if NewBitmap(5).Equal(NewBitmap(6)) {
		t.Error("bitmaps of different capacity compare equal")
	}
}
