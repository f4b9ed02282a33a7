// Package taintinterfix is the taintdet fixture for the shapes that
// once needed a call graph: a clock value read in one function and
// emitted by another. taintdet reports each source where it is read,
// naming the first place its value leaves that function, so every
// clock read below carries exactly one finding, and the callers and
// helpers that only pass values along carry none. The fixture poses as
// tpcds/internal/sql: a clock helper in the parser package, called by
// exec's binder, is reported in the helper.
package taintinterfix

import (
	"time"

	"tpcds/internal/storage"
)

// today reads the clock in an unexported helper: its return is the
// escape, reported at the read.
func today() int64 {
	return time.Now().Unix() / 86400
}

// bindDate emits what the helper returns. No finding here: the read is
// today's, and reported there.
func bindDate() storage.Value {
	d := today()
	return storage.Int(d)
}

// emit forwards its parameter to storage. No finding: a parameter is
// not a source.
func emit(v int64) storage.Value {
	return storage.Int(v)
}

// emitNow passes a clock read straight into the emitting helper.
func emitNow() storage.Value {
	return emit(time.Now().Unix())
}

// emitViaHelper launders the read through a local before the call.
func emitViaHelper() storage.Value {
	seed := time.Now().UnixNano()
	return emit(seed)
}

// walkEven and walkOdd are mutually recursive and read no source: no
// finding, and nothing to iterate to a fixpoint across the pair.
func walkEven(n int, t int64) int64 {
	if n == 0 {
		return t
	}
	return walkOdd(n-1, t)
}

func walkOdd(n int, t int64) int64 {
	if n == 0 {
		return t + 1
	}
	return walkEven(n-1, t)
}

// emitRecursive's clock value enters the recursive pair: the argument
// is the first escape, before the emission that wraps it.
func emitRecursive() storage.Value {
	base := time.Now().Unix()
	return storage.Int(walkEven(3, base))
}

// rowsFor is pure arithmetic; calling it launders nothing. Clean.
func rowsFor(scale int) int {
	return scale * 1000
}

func emitClean(scale int) storage.Value {
	return storage.Int(int64(rowsFor(scale)))
}
