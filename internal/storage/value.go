// Package storage implements the in-memory columnar storage engine the
// benchmark workload runs against: typed column vectors, with a null
// vector only on a column that has held a NULL, tables addressed by row
// id, and the pipe-separated flat-file format the data generator emits
// and the data-maintenance workload consumes (paper §4.2: "the data
// extraction step ... is assumed and represented in the benchmark in
// the form of generated flat files").
package storage

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind is the runtime type of a Value.
type Kind uint8

const (
	// KindNull is the SQL NULL marker.
	KindNull Kind = iota
	// KindInt is a 64-bit integer (also used for surrogate keys).
	KindInt
	// KindFloat is a 64-bit float (decimal columns).
	KindFloat
	// KindString is a UTF-8 string.
	KindString
	// KindDate is a calendar date stored as days since 1900-01-01.
	KindDate
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindDate:
		return "date"
	default:
		return "invalid"
	}
}

// Value is a compact tagged union avoiding interface boxing on the hot
// execution path.
type Value struct {
	K Kind
	I int64 // KindInt and KindDate payload
	F float64
	S string
}

// Null is the SQL NULL value.
var Null = Value{K: KindNull}

// Int returns an integer value.
func Int(v int64) Value { return Value{K: KindInt, I: v} }

// Float returns a float value.
func Float(v float64) Value { return Value{K: KindFloat, F: v} }

// Str returns a string value.
func Str(v string) Value { return Value{K: KindString, S: v} }

// DateV returns a date value from days since 1900-01-01.
func DateV(days int64) Value { return Value{K: KindDate, I: days} }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// AsFloat coerces numeric values to float64 (NULL and strings yield 0).
func (v Value) AsFloat() float64 {
	switch v.K {
	case KindInt, KindDate:
		return float64(v.I)
	case KindFloat:
		return v.F
	default:
		return 0
	}
}

// AsInt coerces numeric values to int64 (NULL and strings yield 0).
func (v Value) AsInt() int64 {
	switch v.K {
	case KindInt, KindDate:
		return v.I
	case KindFloat:
		return int64(v.F)
	default:
		return 0
	}
}

// String renders the value in the flat-file format: dates as ISO
// yyyy-mm-dd, floats with two decimals, NULL as the empty string.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return ""
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		// Two decimals is the flat-file convention for decimal columns,
		// but only when it round-trips: a value carrying more precision
		// (intermediate averages, tax rates) falls back to the shortest
		// exact representation instead of silently losing digits.
		s := strconv.FormatFloat(v.F, 'f', 2, 64)
		if p, err := strconv.ParseFloat(s, 64); err == nil && p == v.F {
			return s
		}
		return strconv.FormatFloat(v.F, 'f', -1, 64)
	case KindString:
		return v.S
	case KindDate:
		return FormatDate(v.I)
	default:
		return fmt.Sprintf("<invalid kind %d>", v.K)
	}
}

// Compare orders two values. NULL sorts before everything; numeric kinds
// (int, float, date) compare numerically across kinds; strings compare
// lexicographically. Comparing a string with a number panics — the
// binder prevents such plans.
func Compare(a, b Value) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	aNum := a.K == KindInt || a.K == KindFloat || a.K == KindDate
	bNum := b.K == KindInt || b.K == KindFloat || b.K == KindDate
	if aNum && bNum {
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.K == KindString && b.K == KindString {
		return strings.Compare(a.S, b.S)
	}
	panic(fmt.Sprintf("storage: incomparable kinds %v and %v", a.K, b.K))
}

// Equal reports SQL equality semantics *for grouping*: NULLs group
// together. (Predicate equality with NULL is handled by the executor,
// which treats NULL comparisons as not-matching.)
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	return Compare(a, b) == 0
}

// GroupKey renders a value for use in a hash-aggregation key. The
// encoding is injective per kind and cheap.
func (v Value) GroupKey() string {
	switch v.K {
	case KindNull:
		return "\x00n"
	case KindInt:
		return "\x00i" + strconv.FormatInt(v.I, 36)
	case KindFloat:
		return "\x00f" + strconv.FormatFloat(v.F, 'b', -1, 64)
	case KindDate:
		return "\x00d" + strconv.FormatInt(v.I, 36)
	default:
		return "\x00s" + v.S
	}
}

// AppendGroupKey appends GroupKey's encoding to buf without the
// intermediate string — the allocation-free variant for reusable key
// buffers on the aggregation and join hot paths. The bytes produced are
// identical to GroupKey's.
func (v Value) AppendGroupKey(buf []byte) []byte {
	switch v.K {
	case KindNull:
		return append(buf, 0, 'n')
	case KindInt:
		return strconv.AppendInt(append(buf, 0, 'i'), v.I, 36)
	case KindFloat:
		return strconv.AppendFloat(append(buf, 0, 'f'), v.F, 'b', -1, 64)
	case KindDate:
		return strconv.AppendInt(append(buf, 0, 'd'), v.I, 36)
	default:
		return append(append(buf, 0, 's'), v.S...)
	}
}
