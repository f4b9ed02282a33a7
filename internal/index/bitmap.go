// Package index provides the access-path substrate of the engine: hash
// indexes for key lookups and index-driven joins, bitmap indexes for the
// star-transformation execution path (§2.1: "typical executions in a
// star schema involve bitmap accesses, bitmap merges, bitmap joins"),
// and sorted indexes for date-range scans used by the logically
// clustered data-maintenance deletes (§4.2).
package index

import "math/bits"

// Bitmap is a fixed-capacity bitset over row ids.
type Bitmap struct {
	words []uint64
	n     int // capacity in bits
}

// NewBitmap returns an empty bitmap able to hold row ids [0, n).
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the bitmap capacity in bits.
func (b *Bitmap) Len() int { return b.n }

// Set marks row id i.
func (b *Bitmap) Set(i int) {
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// Get reports whether row id i is set.
func (b *Bitmap) Get(i int) bool {
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// And intersects b with other in place (bitmap merge). Capacities must
// match.
func (b *Bitmap) And(other *Bitmap) {
	if b.n != other.n {
		panic("index: bitmap capacity mismatch in And")
	}
	for i := range b.words {
		b.words[i] &= other.words[i]
	}
}

// Or unions b with other in place. Capacities must match.
func (b *Bitmap) Or(other *Bitmap) {
	if b.n != other.n {
		panic("index: bitmap capacity mismatch in Or")
	}
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
}

// Clone returns a copy of b.
func (b *Bitmap) Clone() *Bitmap {
	out := &Bitmap{words: make([]uint64, len(b.words)), n: b.n}
	copy(out.words, b.words)
	return out
}

// FillAll sets every bit in [0, n).
func (b *Bitmap) FillAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	// Clear the bits beyond n in the last word.
	if rem := b.n & 63; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(rem)) - 1
	}
}

// ForEach calls fn for every set row id in ascending order. If fn
// returns false iteration stops.
func (b *Bitmap) ForEach(fn func(i int) bool) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			if !fn(wi<<6 + bit) {
				return
			}
			w &= w - 1
		}
	}
}

// Rows materializes the set row ids in ascending order.
func (b *Bitmap) Rows() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// AppendIDs appends the set row ids to dst in ascending order.
func (b *Bitmap) AppendIDs(dst []int32) []int32 {
	for wi, w := range b.words {
		for w != 0 {
			dst = append(dst, int32(wi<<6+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// AndAny intersects b in place with the union of others: a row stays set
// when it is set in b and in at least one of others (none: b empties).
// The others are only read. Capacities must match.
func (b *Bitmap) AndAny(others []*Bitmap) {
	for _, o := range others {
		if o.n != b.n {
			panic("index: bitmap capacity mismatch in AndAny")
		}
	}
	for i := range b.words {
		var u uint64
		for _, o := range others {
			u |= o.words[i]
		}
		b.words[i] &= u
	}
}

// Equal reports whether b and other have the same capacity and bits.
func (b *Bitmap) Equal(other *Bitmap) bool {
	if b.n != other.n {
		return false
	}
	for i, w := range b.words {
		if other.words[i] != w {
			return false
		}
	}
	return true
}

// BitmapIndex maps each distinct int64 key of a column to the bitmap of
// rows carrying it. Suitable for low-cardinality columns and for fact
// foreign keys joined against small dimensions (the star transformation
// probes a dimension, collects the qualifying surrogate keys, ORs their
// fact bitmaps and ANDs across dimensions).
type BitmapIndex struct {
	n    int
	bits map[int64]*Bitmap
	keys []int64 // the keys of bits, in build order
	// nulls tracks rows whose key is NULL (never matched by joins); nil
	// until the first NULL row.
	nulls *Bitmap
}

// BuildBitmapIndex indexes the column given as parallel value and null
// slices (from storage.Table.ScanInt64).
func BuildBitmapIndex(vals []int64, nulls []bool) *BitmapIndex {
	return BuildBitmapIndexUpTo(vals, nulls, len(vals))
}

// BuildBitmapIndexUpTo is BuildBitmapIndex for a low-cardinality
// column: nil as soon as a row holds a distinct non-NULL value past the
// first maxKeys.
func BuildBitmapIndexUpTo(vals []int64, nulls []bool, maxKeys int) *BitmapIndex {
	ix := &BitmapIndex{n: len(vals), bits: map[int64]*Bitmap{}}
	for i, v := range vals {
		if nulls[i] {
			ix.setNull(i)
			continue
		}
		bm := ix.bits[v]
		if bm == nil {
			if len(ix.keys) == maxKeys {
				return nil
			}
			bm = NewBitmap(len(vals))
			ix.bits[v] = bm
			ix.keys = append(ix.keys, v)
		}
		bm.Set(i)
	}
	return ix
}

// BuildCodeIndex indexes a dictionary-coded column of ncodes codes by
// code: the key of a bitmap is the code of the value its rows hold
// (ignored on NULL rows). Only codes some row holds get a bitmap; Keys
// lists them in code order.
func BuildCodeIndex(codes []uint16, nulls []bool, ncodes int) *BitmapIndex {
	n := len(codes)
	ix := &BitmapIndex{n: n, bits: make(map[int64]*Bitmap, ncodes)}
	bms := make([]*Bitmap, ncodes)
	for i, c := range codes {
		if nulls[i] {
			ix.setNull(i)
			continue
		}
		bm := bms[c]
		if bm == nil {
			bm = NewBitmap(n)
			bms[c] = bm
		}
		bm.Set(i)
	}
	for c, bm := range bms {
		if bm != nil {
			ix.keys = append(ix.keys, int64(c))
			ix.bits[int64(c)] = bm
		}
	}
	return ix
}

// setNull marks row i NULL, allocating the NULL bitmap on first use so
// a column without NULLs carries none.
func (ix *BitmapIndex) setNull(i int) {
	if ix.nulls == nil {
		ix.nulls = NewBitmap(ix.n)
	}
	ix.nulls.Set(i)
}

// NumRows returns the indexed row count.
func (ix *BitmapIndex) NumRows() int { return ix.n }

// DistinctKeys returns the number of distinct non-null keys.
func (ix *BitmapIndex) DistinctKeys() int { return len(ix.bits) }

// Keys returns the distinct non-NULL keys in build order. The slice is
// shared: callers must not modify it.
func (ix *BitmapIndex) Keys() []int64 { return ix.keys }

// Lookup returns the bitmap for one key, or nil if absent. The returned
// bitmap is shared — callers must Clone before mutating.
func (ix *BitmapIndex) Lookup(key int64) *Bitmap { return ix.bits[key] }

// Nulls returns the bitmap of the rows whose key is NULL, or nil when
// no row is NULL. It is shared, like Lookup's.
func (ix *BitmapIndex) Nulls() *Bitmap { return ix.nulls }

// UnionOf ORs the bitmaps of all given keys into a fresh bitmap — the
// "bitmap merge" step of a star transformation.
func (ix *BitmapIndex) UnionOf(keys []int64) *Bitmap {
	out := NewBitmap(ix.n)
	for _, k := range keys {
		if bm := ix.bits[k]; bm != nil {
			out.Or(bm)
		}
	}
	return out
}
