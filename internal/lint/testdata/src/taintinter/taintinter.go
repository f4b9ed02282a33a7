// Package taintinterfix is a known-bad fixture for the
// interprocedural half of taintdet: nondeterminism that crosses a
// function boundary before reaching storage emission. It poses as a
// generator package (virtual path "tpcds/internal/datagen"); the
// clock reads carry no finding at their sites, and taintdet reports
// where the laundered values actually escape through a helper's
// summary. The mutually recursive pair pins the
// SCC fixpoint: summary computation must terminate on the cycle and
// still carry the param-to-return transfer through it.
package taintinterfix

import (
	"time"

	"tpcds/internal/storage"
)

// stamp launders a wall-clock read through a return value; its summary
// records TaintsReturn.
func stamp() int64 {
	return time.Now().Unix()
}

// emitStamp never touches the clock itself — the taint arrives through
// the call to stamp and still reaches emission.
func emitStamp() storage.Value {
	s := stamp()
	return storage.Int(s)
}

// emit forwards its parameter to storage; its summary records
// ParamToSink.
func emit(v int64) storage.Value {
	return storage.Int(v)
}

// emitViaHelper's clock value reaches the sink inside the callee, not
// at the call site.
func emitViaHelper() storage.Value {
	seed := time.Now().UnixNano()
	return emit(seed)
}

// walkEven and walkOdd are mutually recursive: one strongly connected
// component. The fixpoint must converge and record that parameter 1
// flows to the return of both.
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

// emitRecursive pushes a clock value through the recursive pair before
// emitting it.
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

// rename writes through its parameter: its summary records
// MutatesParam, which the nilness engine forgets facts by. Clean.
type entry struct{ name string }

func rename(e *entry, name string) {
	e.name = name
}
