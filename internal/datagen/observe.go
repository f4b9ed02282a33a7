package datagen

import (
	"time"

	"tpcds/internal/obs"
	"tpcds/internal/storage"
)

// SetObservability attaches a parent span and metrics registry to the
// generator: GenerateAll then records per-phase and per-table spans
// under parent, table build times in the datagen_table_ns histogram,
// and generated row counts in the datagen_rows counter. Observation never influences generation — the
// per-(table, purpose) random streams are untouched, so an
// instrumented run is bit-identical to a bare one.
func (g *Generator) SetObservability(parent *obs.Span, reg *obs.Registry) {
	g.span = parent
	g.reg = reg
}

// phase opens a span for one dependency phase of the generation plan.
func (g *Generator) phase(name string) *obs.Span {
	return g.span.ChildCat(name, "datagen")
}

// instrument runs one table build under a span and records its
// duration and cardinality. The wall-clock reading here flows ONLY
// into obs recording calls — never into generated data — the boundary
// dslint's taintdet rule and TestFlatFileHashes hold for this package.
func (g *Generator) instrument(parent *obs.Span, name string, gen func() *storage.Table) *storage.Table {
	sp := parent.ChildCat(name, "datagen")
	start := time.Now()
	t := gen()
	if g.reg != nil {
		g.reg.Histogram("datagen_table_ns").ObserveDuration(time.Since(start))
		g.reg.Counter("datagen_rows").Add(int64(t.NumRows()))
	}
	sp.SetAttrInt("rows", int64(t.NumRows()))
	sp.End()
	return t
}
