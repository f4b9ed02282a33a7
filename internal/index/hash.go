package index

import (
	"math/bits"
	"sort"

	"tpcds/internal/storage"
)

// HashIndex maps int64 keys to the row ids carrying them — the engine's
// conventional index for key lookups and index-driven joins (§2.1).
//
// The layout is three allocations whatever the number of keys: an
// open-addressed table of (key, span) slots probed linearly from the
// key's Fibonacci hash, and one array holding every indexed row id,
// grouped by key and ascending within a key; a slot's span is its
// group's position in that array. Probing never wraps around: a
// sequence that runs past the last slot continues in slots appended at
// the end, and the table always ends in a free slot, so every probe
// stops inside it. That keeps Lookup and First inlinable.
//
// Keys that are all present, all different and fill one range of
// consecutive integers — every surrogate key column — need no table:
// the index is positional, slots is nil and the row id of key k is
// rows[k-base].
type HashIndex struct {
	slots    []hashSlot // a power of two (at most 2/3 occupied) plus overflow, last slot free
	rows     []int32
	shift    uint  // 64 - log2 of the power of two
	base     int64 // positional form: the smallest key
	n        int
	distinct int
}

// hashSlot is one key's entry: its row ids are rows[lo:hi]. hi == 0
// marks a free slot (an occupied one holds at least one row).
type hashSlot struct {
	key    int64
	lo, hi int32
}

// slotSpill is the overflow room reserved past the power of two.
const slotSpill = 16

// BuildHashIndex indexes the column given as parallel value/null slices
// (nil nulls: no row is NULL).
func BuildHashIndex(vals []int64, nulls []bool) *HashIndex {
	return buildHashIndex(vals, nulls, nil)
}

// BuildHashIndexPairs indexes explicit (key, row id) pairs: a join
// build side that is a selection of a table's rows, or the positions
// of an intermediate result. Row ids keep their input order within a
// key, so ascending input yields the Lookup order of BuildHashIndex.
func BuildHashIndexPairs(keys []int64, rows []int32) *HashIndex {
	if len(rows) != len(keys) {
		panic("index: BuildHashIndexPairs needs one row id per key")
	}
	return buildHashIndex(keys, nil, rows)
}

// buildHashIndex indexes keys[i] -> rows[i], skipping positions nulls
// marks; nil nulls means no NULL keys, nil rows means rows[i] = i.
func buildHashIndex(keys []int64, nulls []bool, rows []int32) *HashIndex {
	if ix := buildPositional(keys, nulls, rows); ix != nil {
		return ix
	}
	width := bits.Len(uint(len(keys) + len(keys)/2))
	ix := &HashIndex{slots: make([]hashSlot, 1<<width, 1<<width+slotSpill), shift: uint(64 - width), n: len(keys)}
	// Counting sort by slot: count each key's rows in hi, turn the counts
	// into group ends, then fill every group back to front.
	for i, v := range keys {
		if !storage.IsNull(nulls, i) {
			s := ix.slot(v)
			s.key = v
			s.hi++
		}
	}
	if ix.slots[len(ix.slots)-1].hi != 0 {
		ix.slots = append(ix.slots, hashSlot{})
	}
	next := int32(0)
	for i := range ix.slots {
		if s := &ix.slots[i]; s.hi > 0 {
			next += s.hi
			s.lo, s.hi = next, next
			ix.distinct++
		}
	}
	ix.rows = make([]int32, next)
	for i := len(keys) - 1; i >= 0; i-- {
		if !storage.IsNull(nulls, i) {
			r := int32(i)
			if rows != nil {
				r = rows[i]
			}
			s := ix.slot(keys[i])
			s.lo--
			ix.rows[s.lo] = r
		}
	}
	return ix
}

// buildPositional returns the positional index of keys, or nil when a
// key is NULL or repeated or the keys leave a gap in [min, max]. Row ids
// are positions, so -1 can mark a place no key has claimed yet.
func buildPositional(keys []int64, nulls []bool, rows []int32) *HashIndex {
	if len(keys) == 0 {
		return nil
	}
	lo, hi := keys[0], keys[0]
	for i, v := range keys {
		if storage.IsNull(nulls, i) {
			return nil
		}
		lo, hi = min(lo, v), max(hi, v)
	}
	if uint64(hi)-uint64(lo) != uint64(len(keys)-1) {
		return nil
	}
	ix := &HashIndex{rows: make([]int32, len(keys)), base: lo, n: len(keys), distinct: len(keys)}
	for i := range ix.rows {
		ix.rows[i] = -1
	}
	for i, v := range keys {
		at := &ix.rows[uint64(v)-uint64(lo)]
		if *at != -1 {
			return nil
		}
		*at = int32(i)
		if rows != nil {
			*at = rows[i]
		}
	}
	return ix
}

// slot returns key's slot, or the free slot where its probe sequence
// ends — appended past the last one when the sequence runs off the end.
func (ix *HashIndex) slot(key int64) *hashSlot {
	for i := int(uint64(key) * 0x9E3779B97F4A7C15 >> ix.shift); ; i++ {
		if i == len(ix.slots) {
			ix.slots = append(ix.slots, hashSlot{})
		}
		if s := &ix.slots[i]; s.hi == 0 || s.key == key {
			return s
		}
	}
}

// NumRows returns the indexed row count.
func (ix *HashIndex) NumRows() int { return ix.n }

// DistinctKeys returns the number of distinct non-null keys.
func (ix *HashIndex) DistinctKeys() int { return ix.distinct }

// Lookup returns the row ids for key in ascending order (shared slice;
// do not mutate or append to it). It and First are written to stay inside the
// compiler's inlining budget (check with go build -gcflags=-m=2): the
// join probes call them once per row.
func (ix *HashIndex) Lookup(key int64) []int32 {
	i := uint64(key - ix.base)
	if ix.slots == nil {
		if i < uint64(len(ix.rows)) {
			return ix.rows[i : i+1 : i+1]
		}
		return nil
	}
	for i = uint64(key) * 0x9E3779B97F4A7C15 >> ix.shift; ix.slots[i].hi != 0; i++ {
		if ix.slots[i].key == key {
			return ix.rows[ix.slots[i].lo:ix.slots[i].hi]
		}
	}
	return nil
}

// First returns the first row id for key, or -1 if absent. Unique-key
// lookups (surrogate key probes) use this.
func (ix *HashIndex) First(key int64) int32 {
	i := uint64(key - ix.base)
	if ix.slots == nil {
		if i < uint64(len(ix.rows)) {
			return ix.rows[i]
		}
		return -1
	}
	for i = uint64(key) * 0x9E3779B97F4A7C15 >> ix.shift; ix.slots[i].hi != 0; i++ {
		if ix.slots[i].key == key {
			return ix.rows[ix.slots[i].lo]
		}
	}
	return -1
}

// SortedIndex is an order-preserving index over an int64 column: a
// (key, rowid) list sorted by key, answering range queries with binary
// search. Date-range predicates and the logically clustered delete of
// the data-maintenance workload use it.
type SortedIndex struct {
	keys []int64
	rows []int32
	n    int
}

// BuildSortedIndex indexes the column given as parallel value/null
// slices (nil nulls: no row is NULL). NULL keys are omitted.
func BuildSortedIndex(vals []int64, nulls []bool) *SortedIndex {
	ix := &SortedIndex{n: len(vals)}
	for i, v := range vals {
		if storage.IsNull(nulls, i) {
			continue
		}
		ix.keys = append(ix.keys, v)
		ix.rows = append(ix.rows, int32(i))
	}
	sort.Sort(byKey{ix})
	return ix
}

type byKey struct{ ix *SortedIndex }

func (b byKey) Len() int { return len(b.ix.keys) }
func (b byKey) Less(i, j int) bool {
	if b.ix.keys[i] != b.ix.keys[j] {
		return b.ix.keys[i] < b.ix.keys[j]
	}
	return b.ix.rows[i] < b.ix.rows[j]
}
func (b byKey) Swap(i, j int) {
	b.ix.keys[i], b.ix.keys[j] = b.ix.keys[j], b.ix.keys[i]
	b.ix.rows[i], b.ix.rows[j] = b.ix.rows[j], b.ix.rows[i]
}

// NumRows returns the indexed row count.
func (ix *SortedIndex) NumRows() int { return ix.n }

// Range returns the row ids whose key is in [lo, hi], in key order.
func (ix *SortedIndex) Range(lo, hi int64) []int32 {
	if hi < lo {
		return nil
	}
	start := sort.Search(len(ix.keys), func(i int) bool { return ix.keys[i] >= lo })
	end := sort.Search(len(ix.keys), func(i int) bool { return ix.keys[i] > hi })
	out := make([]int32, end-start)
	copy(out, ix.rows[start:end])
	return out
}

// RangeBitmap returns the rows whose key is in [lo, hi] as a bitmap
// sized to the indexed table, ready for bitmap merges.
func (ix *SortedIndex) RangeBitmap(lo, hi int64) *Bitmap {
	bm := NewBitmap(ix.n)
	for _, r := range ix.Range(lo, hi) {
		bm.Set(int(r))
	}
	return bm
}

// MinMax returns the smallest and largest indexed keys. ok is false for
// an empty index.
func (ix *SortedIndex) MinMax() (min, max int64, ok bool) {
	if len(ix.keys) == 0 {
		return 0, 0, false
	}
	return ix.keys[0], ix.keys[len(ix.keys)-1], true
}
