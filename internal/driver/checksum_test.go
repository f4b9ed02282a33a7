package driver

import (
	"math"
	"testing"

	"tpcds/internal/exec"
	"tpcds/internal/storage"
)

// stringChecksum is resultChecksum as it was when each value's bytes
// were converted to a string before hashing; digests recorded with it
// must still verify.
func stringChecksum(r *exec.Result) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
		h ^= 0xff // field separator
		h *= prime
	}
	for _, c := range r.Columns {
		mix(c)
	}
	var buf []byte
	for _, row := range r.Rows {
		for _, v := range row {
			buf = v.AppendGroupKey(buf[:0])
			mix(string(buf))
		}
	}
	return h
}

// TestResultChecksumInPlace: hashing AppendGroupKey's bytes in place
// yields the digest of the string-converting form on every kind of
// value, the awkward ones included, alone and in rows.
func TestResultChecksumInPlace(t *testing.T) {
	day, err := storage.ParseDate("2000-02-29")
	if err != nil {
		t.Fatal(err)
	}
	values := []storage.Value{
		storage.Null,
		storage.Float(0), storage.Float(math.Copysign(0, -1)), storage.Float(math.NaN()),
		storage.Float(math.Inf(1)), storage.Float(math.Inf(-1)), storage.Float(-1.5e-300),
		storage.Int(0), storage.Int(math.MaxInt64), storage.Int(math.MinInt64), storage.Int(-36),
		storage.DateV(day), storage.DateV(0), storage.DateV(-1),
		storage.Str(""), storage.Str("a\x00b"), storage.Str("|"), storage.Str("a|b|"), storage.Str("\x00"),
		storage.Str("a string longer than thirty-two bytes, past any stack buffer"),
	}
	results := []*exec.Result{
		{},
		{Columns: []string{"c", "", "a|b"}},
		{Columns: []string{"all"}, Rows: [][]storage.Value{values}},
	}
	for _, v := range values {
		results = append(results, &exec.Result{Columns: []string{"v"}, Rows: [][]storage.Value{{v}, {storage.Null, v}}})
	}
	seen := map[uint64]int{}
	for i, r := range results {
		got, want := resultChecksum(r), stringChecksum(r)
		if got != want {
			t.Errorf("result %d: checksum %016x, the string form %016x", i, got, want)
		}
		if j, ok := seen[got]; ok {
			t.Errorf("results %d and %d share checksum %016x", j, i, got)
		}
		seen[got] = i
	}
}
