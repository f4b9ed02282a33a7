// Package taintfix is a known-bad fixture for the taintdet analyzer.
// It is type-checked under the virtual import path
// "tpcds/internal/datagen", a generator package. taintdet flags a
// clock read only when its value escapes (a return, or an argument of
// a call outside obs and time), following it through assignments, and
// reports it at the read. os.Getenv and os.Getpid are taint sources
// just like the clock; a read overwritten before it escapes is not a
// finding.
package taintfix

import (
	"os"
	"time"

	"tpcds/internal/storage"
)

// launderedEnv separates the source from the sink with two
// assignments; the environment-derived string still reaches emission.
func launderedEnv() storage.Value {
	host := os.Getenv("HOST")
	tag := "node-" + host
	return storage.Str(tag)
}

// LaunderedClock returns a wall-clock-derived value from an exported
// function: the result escapes to the harness and becomes benchmark
// data.
func LaunderedClock() int64 {
	t := time.Now()
	stamp := t.Unix()
	return stamp
}

// MultiAssign propagates taint through a multi-value assignment.
func MultiAssign() storage.Value {
	pid, name := os.Getpid(), "w"
	_ = name
	return storage.Int(int64(pid))
}

// CleanOverwrite exercises the strong update: the tainted value is
// overwritten with a constant before emission, so nothing escapes. No
// findings.
func CleanOverwrite() storage.Value {
	v := os.Getenv("UNUSED")
	v = "constant"
	return storage.Str(v)
}
