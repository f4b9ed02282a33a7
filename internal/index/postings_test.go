package index

import (
	"math/rand"
	"slices"
	"testing"
)

// denseRef is the reference a BitmapIndex must equal: one bitmap per
// distinct non-NULL key, set bit by bit, keys in first-seen order, and
// one for the NULL rows (nil when there are none).
type denseRef struct {
	keys  []int64
	bits  map[int64]*Bitmap
	nulls *Bitmap
}

func buildDenseRef(vals []int64, nulls []bool) *denseRef {
	r := &denseRef{bits: map[int64]*Bitmap{}}
	for i, v := range vals {
		if nulls != nil && nulls[i] {
			if r.nulls == nil {
				r.nulls = NewBitmap(len(vals))
			}
			r.nulls.Set(i)
			continue
		}
		if r.bits[v] == nil {
			r.bits[v] = NewBitmap(len(vals))
			r.keys = append(r.keys, v)
		}
		r.bits[v].Set(i)
	}
	return r
}

// orInto sets in b, bit by bit, the rows of keys (and the NULL rows when
// nulls is set).
func (r *denseRef) orInto(b *Bitmap, keys []int64, nulls bool) {
	set := func(bm *Bitmap) {
		if bm != nil {
			bm.ForEach(func(i int) bool { b.Set(i); return true })
		}
	}
	for _, k := range keys {
		set(r.bits[k])
	}
	if nulls {
		set(r.nulls)
	}
}

// sameKeys reports whether a and b hold the same keys in any order.
func sameKeys(a, b []int64) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// randomColumn draws n values: a few heavy keys over the rows/32 rule
// (sometimes none), many light keys under it, and NULLs at a random rate
// (sometimes none: then either no null vector, as storage keeps a column
// that never held a NULL, or one with no NULL in it, as it keeps a
// column whose NULLs were deleted or overwritten). The keys are consecutive multiples of a stride: 1 keeps them
// within a span narrower than the column, 7919 spreads them.
func randomColumn(rng *rand.Rand, n int) ([]int64, []bool) {
	heavy := rng.Intn(4)
	light := 1 + rng.Intn(n/2+1)
	stride := []int64{1, 7919}[rng.Intn(2)]
	nullRate := []float64{0, 0.01, 0.3}[rng.Intn(3)]
	vals, nulls := make([]int64, n), []bool(nil)
	if nullRate > 0 || rng.Intn(2) == 0 {
		nulls = make([]bool, n)
	}
	for i := range vals {
		switch f := rng.Float64(); {
		case f < nullRate:
			nulls[i] = true
		case heavy > 0 && f < nullRate+0.5:
			vals[i] = int64(light+rng.Intn(heavy)) * stride
		default:
			vals[i] = int64(rng.Intn(light)) * stride
		}
	}
	return vals, nulls
}

// randomKeys draws a key list: indexed keys, absent keys and duplicates,
// sometimes none at all.
func randomKeys(rng *rand.Rand, ref *denseRef) []int64 {
	keys := make([]int64, rng.Intn(12))
	for i := range keys {
		if len(ref.keys) > 0 && rng.Intn(4) != 0 {
			keys[i] = ref.keys[rng.Intn(len(ref.keys))]
		} else {
			keys[i] = -1 - int64(rng.Intn(50)) // no value is negative: absent
		}
	}
	if len(keys) > 1 && rng.Intn(2) == 0 {
		keys = append(keys, keys[0])
	}
	return keys
}

// TestPostingsEqualDenseReference: on random columns with NULLs and keys
// on both sides of the dense rule, every index form — BuildBitmapIndex,
// BuildBitmapIndexUpTo at the column's key count and BuildCodeIndex over
// the same values as codes — answers Keys, Nulls, UnionOf, Or into a
// non-empty bitmap and chains of Merge.AndAny as the dense reference
// does, and its Bytes stays within 4 bytes a row, a per-key constant and
// rows/8 per dense bitmap.
func TestPostingsEqualDenseReference(t *testing.T) {
	const perKey = 64 // at least keys, off and the key→slot map entry
	rng := rand.New(rand.NewSource(31))
	postings, dense := 0, 0
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(3000)
		vals, nulls := randomColumn(rng, n)
		ref := buildDenseRef(vals, nulls)
		// Codes with gaps (a dictionary of 300 entries) or, for most
		// columns, every code held.
		ncodes := []int{300, 1 + rng.Intn(8)}[rng.Intn(2)]
		codes := make([]uint16, n)
		codeVals := make([]int64, n)
		for i, v := range vals {
			codes[i] = uint16(uint64(v) % uint64(ncodes))
			codeVals[i] = int64(codes[i])
		}
		codeRef := buildDenseRef(codeVals, nulls)
		forms := []struct {
			name string
			ix   *BitmapIndex
			ref  *denseRef
		}{
			{"BuildBitmapIndex", BuildBitmapIndex(vals, nulls), ref},
			{"BuildBitmapIndexUpTo", BuildBitmapIndexUpTo(vals, nulls, len(ref.keys)), ref},
			{"BuildCodeIndex", BuildCodeIndex(codes, nulls, ncodes), codeRef},
		}
		if len(ref.keys) > 0 && BuildBitmapIndexUpTo(vals, nulls, len(ref.keys)-1) != nil {
			t.Fatalf("trial %d: an index past maxKeys", trial)
		}
		for _, f := range forms {
			ix, r := f.ix, f.ref
			if ix.NumRows() != n || ix.DistinctKeys() != len(r.keys) || !sameKeys(ix.Keys(), r.keys) {
				t.Fatalf("trial %d %s: %d rows, keys %v; want %d rows, keys %v", trial, f.name, ix.NumRows(), ix.Keys(), n, r.keys)
			}
			if (ix.Nulls() == nil) != (r.nulls == nil) || ix.Nulls() != nil && !ix.Nulls().Equal(r.nulls) {
				t.Fatalf("trial %d %s: NULL rows differ", trial, f.name)
			}
			postings += len(ix.ids)
			dense += len(ix.dense)
			for _, d := range ix.dense {
				if d.Count()*denseShare <= n {
					t.Fatalf("trial %d %s: a dense key of %d rows in %d", trial, f.name, d.Count(), n)
				}
			}
			bound := 4*int64(n) + perKey*int64(len(r.keys)) + int64(len(ix.dense)+1)*(int64(n)/8+16)
			if ix.Bytes() > bound {
				t.Fatalf("trial %d %s: %d bytes for %d rows, %d keys, %d dense; bound %d", trial, f.name, ix.Bytes(), n, len(r.keys), len(ix.dense), bound)
			}
			for q := 0; q < 8; q++ {
				keys := randomKeys(rng, r)
				want := NewBitmap(n)
				r.orInto(want, keys, false)
				if !ix.UnionOf(keys).Equal(want) {
					t.Fatalf("trial %d %s: UnionOf(%v) differs", trial, f.name, keys)
				}
				pre := NewBitmap(n)
				for i := 0; i < n; i += 1 + rng.Intn(40) {
					pre.Set(i)
				}
				want = pre.Clone()
				r.orInto(want, keys, false)
				if ix.Or(pre, keys); !pre.Equal(want) {
					t.Fatalf("trial %d %s: Or(%v) into a non-empty bitmap differs", trial, f.name, keys)
				}
			}
			// A chain of merges over this form and the plain index.
			var m Merge
			want := NewBitmap(n)
			want.FillAll()
			for step := 0; step < 1+rng.Intn(4); step++ {
				ixs, rs := ix, r
				if rng.Intn(2) == 0 {
					ixs, rs = forms[0].ix, forms[0].ref
				}
				keys, withNulls := randomKeys(rng, rs), rng.Intn(3) == 0
				u := NewBitmap(n)
				rs.orInto(u, keys, withNulls)
				want.And(u)
				m.AndAny(ixs, keys, withNulls)
				if !m.Result().Equal(want) {
					t.Fatalf("trial %d %s: merge step %d (keys %v, nulls %v) differs", trial, f.name, step, keys, withNulls)
				}
			}
		}
	}
	if postings == 0 || dense == 0 {
		t.Fatalf("the columns exercised %d posting rows and %d dense keys; both forms must occur", postings, dense)
	}
}

// TestBitmapIndexBytesLinear: a column of all-different keys, the worst
// case of a bitmap per key, costs its posting lists plus the per-key
// entries: linear in rows.
func TestBitmapIndexBytesLinear(t *testing.T) {
	for _, n := range []int{1 << 10, 1 << 14} {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(n - i)
		}
		ix := BuildBitmapIndex(vals, make([]bool, n))
		if got, bound := ix.Bytes(), int64(n)*(4+64); got > bound {
			t.Errorf("%d distinct keys: %d bytes, bound %d", n, got, bound)
		}
		if len(ix.dense) != 0 || len(ix.ids) != n {
			t.Errorf("%d distinct keys: %d dense keys and %d posting rows", n, len(ix.dense), len(ix.ids))
		}
	}
}

// TestDenseRule: a key is dense when it holds more than rows/32 rows,
// and only then, whichever way the build finds the keys' slots: a key
// space narrower than 32, a span no wider than the column, or a map.
func TestDenseRule(t *testing.T) {
	const n = 128
	for _, stride := range []int64{1, 50, 1000} {
		vals := make([]int64, n) // key 0 fills the rest
		for i := 0; i < 4; i++ {
			vals[i] = stride // 4 rows: 4 × 32 = 128, not more
		}
		for i := 4; i < 9; i++ {
			vals[i] = 2 * stride
		}
		ix := BuildBitmapIndex(vals, make([]bool, n))
		var dense []int64
		for _, s := range ix.denseSlots {
			dense = append(dense, ix.keys[s])
		}
		slices.Sort(dense)
		if !slices.Equal(dense, []int64{0, 2 * stride}) || !slices.Equal(ix.ids, []int32{0, 1, 2, 3}) {
			t.Errorf("stride %d: dense keys %v, posting rows %v; want [0 %d], [0 1 2 3] (key %d)", stride, dense, ix.ids, 2*stride, stride)
		}
	}
}
