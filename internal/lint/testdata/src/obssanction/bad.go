// Fixture for taintdet at the observability boundary: wall-clock
// values flowing only into internal/obs recording calls are clean; the
// same value also reaching storage is flagged, and a value read back
// OUT of obs instruments is a taint source.
package datagen

import (
	"time"

	"tpcds/internal/obs"
	"tpcds/internal/storage"
)

// observeOnly is clean: every wall-clock read lands in an obs
// recording call, directly or through the start/elapsed locals.
func observeOnly(tr *obs.Tracer, reg *obs.Registry) {
	sp := tr.Root("gen", "datagen")
	start := time.Now()
	elapsed := time.Since(start)
	reg.Histogram("gen_table_ns").ObserveDuration(elapsed)
	sp.SetAttrInt("elapsed_ns", int64(time.Since(start)))
	sp.End()
}

// leakToStorage is flagged: the clock reading reaches the storage
// sink, even though the same value also feeds an obs histogram. (It is
// unexported, so its return is not a second sink; the emission is the
// finding.)
func leakToStorage(reg *obs.Registry) storage.Value {
	start := time.Now()
	elapsed := time.Since(start)
	reg.Histogram("gen_table_ns").Observe(int64(elapsed))
	return storage.Int(int64(elapsed))
}

// SpanDurationIntoData is flagged: a duration read back from a span is
// wall-clock-derived, and here it becomes benchmark data.
func SpanDurationIntoData(tr *obs.Tracer) storage.Value {
	sp := tr.Root("gen", "datagen")
	d := sp.End()
	return storage.Int(int64(d))
}

// CounterIntoData is flagged: a counter snapshot differs between runs
// of the same seed (it counts real work, not seeded draws).
func CounterIntoData(reg *obs.Registry) storage.Value {
	n := reg.Counter("rows").Value()
	return storage.Int(n)
}
