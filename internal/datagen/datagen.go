// Package datagen implements the TPC-DS data generator (the paper's
// dsdgen, §3): it populates the 24-table snowstorm schema at a given
// scale factor with the hybrid synthetic / real-world data domains of
// package dist, applying
//
//   - linear fact-table and sub-linear dimension scaling (package scaling),
//   - the zoned seasonal sales-date distribution of Figure 2,
//   - Gaussian word selection for names and text (frequent-names skew),
//   - single-inheritance item hierarchies (Figure 5),
//   - slowly changing dimensions with up to 3 revisions per business key
//     (§3.3.2), carrying rec_start_date/rec_end_date version ranges, and
//   - returns that reference actual sales rows, enabling the fact-to-fact
//     joins of §2.2.
//
// Generation is deterministic: a Generator with the same scale factor and
// seed always produces the identical database, the repeatability
// requirement of §3.2. Tables draw from independent per-(table, purpose)
// random streams, so tables may be generated in any order or in parallel.
package datagen

import (
	"fmt"
	"sync"

	"tpcds/internal/obs"
	"tpcds/internal/rng"
	"tpcds/internal/scaling"
	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

// Sales history: fact dates span 5 whole years, mirroring the official
// kit's 1998-2002 window. The §3.1 narrative ("58 million items sold per
// year" from 288M rows at SF 100) divides by this span.
const (
	FirstSalesYear = 1998
	LastSalesYear  = 2002
	SalesYears     = LastSalesYear - FirstSalesYear + 1
)

// Generator produces the benchmark data set.
type Generator struct {
	SF   float64
	Seed uint64

	defs map[string]*schema.Table
	// Observability (SetObservability): nil means generation runs on
	// the zero-cost disabled path.
	span *obs.Span
	reg  *obs.Registry
}

// New returns a generator for the given scale factor and seed.
// Scale factor must be positive; see scaling.OfficialScaleFactors for
// the publishable values (any positive value works for development).
func New(sf float64, seed uint64) *Generator {
	if sf <= 0 {
		panic("datagen: non-positive scale factor")
	}
	return &Generator{SF: sf, Seed: seed, defs: schema.ByName()}
}

// stream returns the independent random stream for (table, purpose).
func (g *Generator) stream(table, purpose string) *rng.Stream {
	return rng.NewStream(rng.ColumnSeed(g.Seed, table, purpose))
}

// rows returns the target cardinality for a table at the generator's SF.
func (g *Generator) rows(table string) int64 {
	return scaling.Rows(table, g.SF)
}

// GenerateAll builds the complete database, one goroutine per table
// within each dependency phase: all dimensions first (independent),
// then the three sales facts (they need dimension cardinalities), then
// returns (they sample their sales fact) and inventory. Because every
// table draws from its own independent random streams (the MUDD
// design, §3), the database is the one a serial composition of the
// per-table generators builds, byte for byte — the property
// TestParallelEqualsSequential verifies. Tables are registered only
// between phases, so no goroutine observes a mutating database.
func (g *Generator) GenerateAll() *storage.DB {
	db := storage.NewDB()

	// Ownership: runPhase joins every per-table goroutine it spawns via
	// wg.Wait before touching db, so each phase's writes (one goroutine
	// per results slot) happen-before the registration loop and nothing
	// escapes the phase. Per-table spans hang off the phase span from
	// concurrent goroutines — span creation is goroutine-safe and the
	// phase span outlives the wg.Wait join.
	runPhase := func(phase string, names []string, gen func(name string) *storage.Table) {
		psp := g.phase(phase)
		defer psp.End()
		results := make([]*storage.Table, len(names))
		var wg sync.WaitGroup
		for i, name := range names {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i] = g.instrument(psp, name, func() *storage.Table { return gen(name) })
			}()
		}
		wg.Wait()
		for _, t := range results {
			db.Put(t)
		}
	}

	runPhase("dimensions", dimensionOrder, g.GenerateDimension)
	runPhase("facts", []string{"store_sales", "catalog_sales", "web_sales"},
		func(name string) *storage.Table { return g.generateSales(db, name) })
	runPhase("returns+inventory", []string{"store_returns", "catalog_returns", "web_returns", "inventory"},
		func(name string) *storage.Table {
			if name == "inventory" {
				return g.generateInventory(db)
			}
			return g.generateReturns(db, name, db.Table(salesOf[name]))
		})
	return db
}

// GenerateAllParallel is GenerateAll.
//
// Deprecated: GenerateAll is the parallel schedule; call it.
func (g *Generator) GenerateAllParallel() *storage.DB { return g.GenerateAll() }

// dimensionOrder lists the dimensions in the order their generation
// starts.
var dimensionOrder = []string{
	"date_dim", "time_dim", "income_band", "customer_demographics",
	"household_demographics", "reason", "ship_mode", "warehouse",
	"customer_address", "item", "customer", "store", "call_center",
	"catalog_page", "web_site", "web_page", "promotion",
}

// salesOf maps each returns fact to the sales fact its rows sample.
var salesOf = map[string]string{
	"store_returns":   "store_sales",
	"catalog_returns": "catalog_sales",
	"web_returns":     "web_sales",
}

// GenerateDimension builds one dimension table by name. It panics on
// fact table names (facts need the dimension context; use GenerateAll).
func (g *Generator) GenerateDimension(name string) *storage.Table {
	def := g.defs[name]
	if def == nil {
		panic(fmt.Sprintf("datagen: unknown table %q", name))
	}
	if def.Kind != schema.Dimension {
		panic(fmt.Sprintf("datagen: %s is not a dimension", name))
	}
	switch name {
	case "date_dim":
		return g.genDateDim(def)
	case "time_dim":
		return g.genTimeDim(def)
	case "income_band":
		return g.genIncomeBand(def)
	case "customer_demographics":
		return g.genCustomerDemographics(def)
	case "household_demographics":
		return g.genHouseholdDemographics(def)
	case "reason":
		return g.genReason(def)
	case "ship_mode":
		return g.genShipMode(def)
	case "warehouse":
		return g.genWarehouse(def)
	case "customer_address":
		return g.genCustomerAddress(def)
	case "item":
		return g.genItem(def)
	case "customer":
		return g.genCustomer(def)
	case "store":
		return g.genStore(def)
	case "call_center":
		return g.genCallCenter(def)
	case "catalog_page":
		return g.genCatalogPage(def)
	case "web_site":
		return g.genWebSite(def)
	case "web_page":
		return g.genWebPage(def)
	case "promotion":
		return g.genPromotion(def)
	default:
		panic(fmt.Sprintf("datagen: no generator for dimension %q", name))
	}
}

// bkey renders a 16-character business key in the dsdgen style
// ("AAAAAAAA..." base-16 over letters A-P), unique per entity id.
func bkey(entity int64) string {
	var buf [16]byte
	for i := range buf {
		buf[i] = 'A'
	}
	for i := 15; i >= 0 && entity > 0; i-- {
		buf[i] = byte('A' + entity&0xf)
		entity >>= 4
	}
	return string(buf[:])
}

// pickGaussian selects from a frequency-ordered vocabulary with the
// Gaussian skew of §3.2. The most frequent entries sit mid-list after
// reordering, so we map the Gaussian index back onto frequency rank:
// rank 0 is most likely.
func pickGaussian(s *rng.Stream, vocab []string) string {
	// Fold the symmetric Gaussian index into a rank: distance from center.
	n := len(vocab)
	gi := s.GaussianIndex(n)
	rank := gi - n/2
	if rank < 0 {
		rank = -rank*2 - 1
	} else {
		rank *= 2
	}
	if rank >= n {
		rank = n - 1
	}
	return vocab[rank]
}

// pickUniform selects uniformly from a vocabulary.
func pickUniform(s *rng.Stream, vocab []string) string {
	return vocab[s.Intn(len(vocab))]
}

// maybeNull returns NULL with probability pct/100, else v. The generated
// data carries NULLs in nullable fact foreign keys, challenging joins
// and statistics as real warehouse data does.
func maybeNull(s *rng.Stream, pct int, v storage.Value) storage.Value {
	if s.Intn(100) < pct {
		return storage.Null
	}
	return v
}

// money rounds a float to cents.
func money(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}

// wordText synthesizes n words of Gaussian-selected filler text, at most
// maxLen bytes.
func wordText(s *rng.Stream, words int, maxLen int) string {
	out := ""
	for i := 0; i < words; i++ {
		w := pickGaussian(s, wordsVocab)
		if len(out)+len(w)+1 > maxLen {
			break
		}
		if out != "" {
			out += " "
		}
		out += w
	}
	return out
}
