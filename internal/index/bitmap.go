// Package index provides the access-path substrate of the engine: hash
// indexes for key lookups and index-driven joins, bitmap indexes for the
// star-transformation execution path (§2.1: "typical executions in a
// star schema involve bitmap accesses, bitmap merges, bitmap joins") and
// for value selections on the large dimensions, and sorted indexes for
// date-range scans used by the logically clustered data-maintenance
// deletes (§4.2).
//
// A bitmap index stores each key's rows as a posting list of row ids, 4
// bytes a row, and only a key holding more than 1/32 of the rows as a
// dense bitmap, so its size is linear in rows whatever the number of
// distinct keys. Its merges produce dense bitmaps: a posting list is
// scattered into one, at the cost of its rows.
package index

import (
	"math"
	"math/bits"
	"slices"

	"tpcds/internal/storage"
)

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

// Clear unsets every bit.
func (b *Bitmap) Clear() { clear(b.words) }

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

// BitmapIndex maps each distinct int64 key of a column to the rows
// carrying it. Suitable for low-cardinality columns and for fact
// foreign keys joined against small dimensions (the star transformation
// probes a dimension, collects the qualifying surrogate keys, ORs their
// fact rows and ANDs across dimensions).
//
// A key's rows are kept in the smaller of two forms. Most keys have a
// posting list: the key's row ids, ascending, 4 bytes a row, every list
// in one shared array. A key held by more than one row in denseShare has
// a dense bitmap instead, rows/8 bytes, which is then the smaller form;
// at most denseShare keys can be dense. The index therefore costs at
// most 4 bytes a row plus a few words a key, whatever the number of
// distinct keys.
type BitmapIndex struct {
	n    int
	keys []int64         // the distinct non-NULL keys (Keys gives the order)
	slot map[int64]int32 // key -> its position in keys
	// off: slot s's posting list is ids[off[s]:off[s+1]]. A key holds at
	// least one row, so an empty list marks a dense key.
	off        []int32
	ids        []int32
	denseSlots []int32   // the dense keys' slots, ascending
	dense      []*Bitmap // dense[i] holds the rows of slot denseSlots[i]
	// nulls tracks rows whose key is NULL (never matched by joins); nil
	// when no row is NULL.
	nulls *Bitmap
}

// denseShare is the rule for a dense key: one holding more than
// rows/denseShare rows, where a bitmap's rows/8 bytes undercut a
// posting list's 4 bytes a row.
const denseShare = 32

// mapEntryBytes estimates one entry of the key→slot map, growth slack
// included, for Bytes.
const mapEntryBytes = 32

// BuildBitmapIndex indexes the column given as parallel value and null
// slices (from storage.Table.ScanInt64; nil nulls: no row is NULL).
func BuildBitmapIndex(vals []int64, nulls []bool) *BitmapIndex {
	return BuildBitmapIndexUpTo(vals, nulls, len(vals))
}

// BuildBitmapIndexUpTo is BuildBitmapIndex for a low-cardinality
// column: nil as soon as a row holds a distinct non-NULL value past the
// first maxKeys, found while counting, before any per-key allocation
// (but for a key space narrower than denseShare, see buildSmall).
func BuildBitmapIndexUpTo(vals []int64, nulls []bool, maxKeys int) *BitmapIndex {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for i, v := range vals {
		if !storage.IsNull(nulls, i) {
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	d := uint64(hi) - uint64(lo) // the span of the values, less one
	if lo <= hi && d < denseShare {
		if ix := buildSmall(nulls, vals, lo, int(d)+1); len(ix.keys) <= maxKeys {
			return ix
		}
		return nil
	}
	slot := map[int64]int32{}
	var keys []int64
	var counts []int32
	if lo <= hi && d < uint64(len(vals)) && d/64 < uint64(maxKeys) {
		// Values within a span no wider than the column, nor than 64
		// entries per key allowed: slots found through a table indexed
		// by value - lo, at most 4 bytes a row.
		bySpan := make([]int32, d+1)
		for j := range bySpan {
			bySpan[j] = -1
		}
		for i, v := range vals {
			if storage.IsNull(nulls, i) {
				continue
			}
			s := bySpan[v-lo]
			if s < 0 {
				if len(keys) == maxKeys {
					return nil
				}
				s = int32(len(keys))
				bySpan[v-lo] = s
				keys = append(keys, v)
				counts = append(counts, 0)
			}
			counts[s]++
		}
		for s, k := range keys {
			slot[k] = int32(s)
		}
		return build(nulls, keys, slot, counts, vals, lo, bySpan)
	}
	rowSlot := make([]int32, len(vals))
	for i, v := range vals {
		if storage.IsNull(nulls, i) {
			continue
		}
		s, ok := slot[v]
		if !ok {
			if len(keys) == maxKeys {
				return nil
			}
			s = int32(len(keys))
			slot[v] = s
			keys = append(keys, v)
			counts = append(counts, 0)
		}
		counts[s]++
		rowSlot[i] = s
	}
	identity := make([]int32, len(keys))
	for s := range identity {
		identity[s] = int32(s)
	}
	return build(nulls, keys, slot, counts, rowSlot, 0, identity)
}

// BuildCodeIndex indexes a dictionary-coded column of ncodes codes by
// code: a key is the code of the value its rows hold (ignored on NULL
// rows; nil nulls: no row is NULL). Only codes some row holds are keys;
// Keys lists them in code order.
func BuildCodeIndex(codes []uint16, nulls []bool, ncodes int) *BitmapIndex {
	if ncodes <= denseShare {
		return buildSmall(nulls, codes, 0, ncodes)
	}
	perCode := make([]int32, ncodes)
	for i, c := range codes {
		if !storage.IsNull(nulls, i) {
			perCode[c]++
		}
	}
	slot := map[int64]int32{}
	var keys []int64
	var counts []int32
	for c, k := range perCode {
		if k > 0 {
			slot[int64(c)] = int32(len(keys))
			perCode[c] = int32(len(keys)) // from here on: code -> slot
			keys = append(keys, int64(c))
			counts = append(counts, k)
		}
	}
	return build(nulls, keys, slot, counts, codes, 0, perCode)
}

// build is the second of two passes: given each key's row count from
// the first, it lays out the posting lists and dense bitmaps, then
// scatters every row into its key's. Row i's slot is
// toSlot[rowKey[i]-base], unless nulls (nil: none) marks it NULL.
// counts is consumed.
func build[K uint16 | int32 | int64](nulls []bool, keys []int64, slot map[int64]int32, counts []int32, rowKey []K, base int64, toSlot []int32) *BitmapIndex {
	n := len(rowKey)
	ix := &BitmapIndex{n: n, keys: keys, slot: slot, off: make([]int32, len(keys)+1)}
	// From here counts[s] is slot s's write cursor into ids, unless the
	// key is dense and its rows go to denseOf[s].
	denseOf := make([][]uint64, len(keys))
	var pos, indexed int32
	for s, c := range counts {
		ix.off[s] = pos
		indexed += c
		if int(c)*denseShare > n {
			bm := NewBitmap(n)
			ix.denseSlots = append(ix.denseSlots, int32(s))
			ix.dense = append(ix.dense, bm)
			denseOf[s] = bm.words
			continue
		}
		counts[s] = pos
		pos += c
	}
	ix.off[len(keys)] = pos
	ids := make([]int32, pos)
	ix.ids = ids
	for i, k := range rowKey {
		if storage.IsNull(nulls, i) {
			continue
		}
		s := toSlot[int64(k)-base]
		if w := denseOf[s]; w != nil {
			w[i>>6] |= 1 << (uint(i) & 63)
		} else {
			c := counts[s]
			ids[c] = int32(i)
			counts[s] = c + 1
		}
	}
	ix.setNulls(nulls, int(indexed))
	return ix
}

// buildSmall indexes a column whose key space has at most denseShare
// slots — row i's slot is rowKey[i]-base, unless nulls (nil: none)
// marks it NULL — in one pass: every slot gets
// a bitmap first (rows/8 bytes × denseShare: 4 bytes a row in all), the
// popcounts are the row counts, and a slot the dense rule does not keep
// becomes a posting list read back out of its bitmap. Slots no row
// holds are no keys; Keys lists the others in slot order. Counting
// first, then scattering, took twice as long on these columns.
func buildSmall[K uint16 | int64](nulls []bool, rowKey []K, base int64, nslots int) *BitmapIndex {
	n := len(rowKey)
	words := make([][]uint64, nslots)
	for s := range words {
		words[s] = make([]uint64, (n+63)/64)
	}
	for i, k := range rowKey {
		if !storage.IsNull(nulls, i) {
			words[int64(k)-base][i>>6] |= 1 << (uint(i) & 63)
		}
	}
	counts := make([]int, nslots)
	indexed, sparse := 0, 0
	for s, w := range words {
		for _, x := range w {
			counts[s] += bits.OnesCount64(x)
		}
		if indexed += counts[s]; counts[s]*denseShare <= n {
			sparse += counts[s]
		}
	}
	ix := &BitmapIndex{n: n, slot: map[int64]int32{}, ids: make([]int32, 0, sparse)}
	for s, w := range words {
		if counts[s] == 0 {
			continue
		}
		k := base + int64(s)
		ix.slot[k] = int32(len(ix.keys))
		ix.off = append(ix.off, int32(len(ix.ids)))
		bm := &Bitmap{words: w, n: n}
		if counts[s]*denseShare > n {
			ix.denseSlots = append(ix.denseSlots, int32(len(ix.keys)))
			ix.dense = append(ix.dense, bm)
		} else {
			ix.ids = bm.AppendIDs(ix.ids)
		}
		ix.keys = append(ix.keys, k)
	}
	ix.off = append(ix.off, int32(len(ix.ids)))
	ix.setNulls(nulls, indexed)
	return ix
}

// setNulls marks the NULL rows, when fewer than all rows are indexed
// (never so when nulls is nil).
func (ix *BitmapIndex) setNulls(nulls []bool, indexed int) {
	if indexed == ix.n {
		return
	}
	ix.nulls = NewBitmap(ix.n)
	for i, null := range nulls {
		if null {
			ix.nulls.Set(i)
		}
	}
}

// NumRows returns the indexed row count.
func (ix *BitmapIndex) NumRows() int { return ix.n }

// DistinctKeys returns the number of distinct non-null keys.
func (ix *BitmapIndex) DistinctKeys() int { return len(ix.keys) }

// Keys returns the distinct non-NULL keys: ascending for a dictionary
// column (by code) and for values spanning fewer than denseShare, else
// in the order rows first hold them. The slice is shared: callers must
// not modify it.
func (ix *BitmapIndex) Keys() []int64 { return ix.keys }

// Nulls returns the bitmap of the rows whose key is NULL, or nil when
// no row is NULL. It is shared: callers must not modify it.
func (ix *BitmapIndex) Nulls() *Bitmap { return ix.nulls }

// Bytes is the index's resident size: posting lists, dense and NULL
// bitmaps, and per key its entries in keys, off and the key→slot map
// (the map's at mapEntryBytes).
func (ix *BitmapIndex) Bytes() int64 {
	b := int64(len(ix.ids))*4 + int64(len(ix.off))*4 + int64(len(ix.keys))*(8+mapEntryBytes)
	for _, d := range ix.dense {
		b += 4 + 8 + int64(len(d.words))*8
	}
	if ix.nulls != nil {
		b += int64(len(ix.nulls.words)) * 8
	}
	return b
}

// Or sets in b the rows holding one of keys (an absent key holds none):
// a posting list costs its rows, a dense key one pass over the words.
// The capacities must match.
func (ix *BitmapIndex) Or(b *Bitmap, keys []int64) {
	if b.n != ix.n {
		panic("index: bitmap capacity mismatch in BitmapIndex.Or")
	}
	for _, k := range keys {
		s, ok := ix.slot[k]
		if !ok {
			continue
		}
		lo, hi := ix.off[s], ix.off[s+1]
		if lo == hi {
			b.Or(ix.denseAt(s))
			continue
		}
		for _, r := range ix.ids[lo:hi] {
			b.words[r>>6] |= 1 << (uint(r) & 63)
		}
	}
}

// denseAt returns the bitmap of dense slot s.
func (ix *BitmapIndex) denseAt(s int32) *Bitmap {
	d, _ := slices.BinarySearch(ix.denseSlots, s)
	return ix.dense[d]
}

// UnionOf returns the rows holding one of keys in a fresh bitmap — the
// "bitmap merge" step of a star transformation.
func (ix *BitmapIndex) UnionOf(keys []int64) *Bitmap {
	out := NewBitmap(ix.n)
	ix.Or(out, keys)
	return out
}

// Merge ANDs unions of keys: across a table's conjuncts, each answered
// by one column's index, or across a star's dimensions, each answered
// by one fact foreign key's. The first AndAny lays its union down as the
// result. A later one whose keys are all dense ANDs the OR of their
// bitmaps in word by word; any other builds its union in one scratch
// bitmap, reused, and ANDs that in. The indexes are only read. The zero
// Merge is ready to use.
type Merge struct {
	bm, scratch *Bitmap
}

// AndAny intersects the result with the rows of ix holding one of keys,
// and with its NULL rows too when nulls is set. Every index merged must
// have the same row count.
func (m *Merge) AndAny(ix *BitmapIndex, keys []int64, nulls bool) {
	if m.bm == nil {
		m.bm = ix.UnionOf(keys)
		if nulls && ix.nulls != nil {
			m.bm.Or(ix.nulls)
		}
		return
	}
	if m.bm.n != ix.n {
		panic("index: bitmap capacity mismatch in Merge.AndAny")
	}
	if ds, ok := ix.denseBitmaps(keys); ok {
		if nulls && ix.nulls != nil {
			ds = append(ds, ix.nulls)
		}
		for i := range m.bm.words {
			var u uint64
			for _, d := range ds {
				u |= d.words[i]
			}
			m.bm.words[i] &= u
		}
		return
	}
	if m.scratch == nil {
		m.scratch = NewBitmap(ix.n)
	} else {
		m.scratch.Clear()
	}
	ix.Or(m.scratch, keys)
	if nulls && ix.nulls != nil {
		m.scratch.Or(ix.nulls)
	}
	m.bm.And(m.scratch)
}

// denseBitmaps returns the dense bitmaps of keys, absent keys skipped, and
// whether every present key is dense.
func (ix *BitmapIndex) denseBitmaps(keys []int64) ([]*Bitmap, bool) {
	var ds []*Bitmap
	for _, k := range keys {
		s, ok := ix.slot[k]
		if !ok {
			continue
		}
		if ix.off[s] != ix.off[s+1] {
			return nil, false
		}
		ds = append(ds, ix.denseAt(s))
	}
	return ds, true
}

// Result returns the merged rows: nil before the first AndAny. The
// bitmap belongs to the caller; further AndAny calls write to it.
func (m *Merge) Result() *Bitmap { return m.bm }

// Bytes is the footprint of the result and the scratch bitmap.
func (m *Merge) Bytes() int64 {
	var b int64
	for _, bm := range []*Bitmap{m.bm, m.scratch} {
		if bm != nil {
			b += int64(len(bm.words)) * 8
		}
	}
	return b
}
