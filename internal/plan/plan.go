// Package plan implements the optimizer decision layer of the engine.
// Paper §2.1 makes the choice between the two physical strategies it
// singles out — the star transformation (bitmap accesses, bitmap
// merges, bitmap joins) natural to star schemas, and the hash-join
// pipeline natural to 3NF — the optimizer's job: "this seems to be an
// area in which today's query optimizers have huge deficits." The
// package holds the cost model with its one star rule (ChooseCost), the
// join-order search and plan cache, and the statement rewrites and
// fingerprints the executor plans with. There is one production
// configuration: cost planning over gathered statistics under Auto.
package plan

// Mode constrains the strategy choice. Production always runs Auto,
// where the cost model decides; the forced modes are references for
// tests and the star-vs-hash ablation benchmark, which compare the two
// strategies' results and times.
type Mode int

const (
	// Auto picks the cheaper strategy by estimated cost.
	Auto Mode = iota
	// ForceHashJoin always uses the hash-join pipeline.
	ForceHashJoin
	// ForceStar always uses the star transformation when the query
	// shape permits (falls back to hash joins otherwise).
	ForceStar
)

func (m Mode) String() string {
	switch m {
	case ForceHashJoin:
		return "force-hash-join"
	case ForceStar:
		return "force-star"
	default:
		return "auto"
	}
}

// Strategy is the chosen physical join strategy.
type Strategy int

const (
	// HashJoinPipeline builds hash tables on filtered dimensions and
	// probes with the driver table.
	HashJoinPipeline Strategy = iota
	// StarTransform intersects per-dimension fact bitmaps, then fetches
	// qualifying fact rows and joins dimensions by surrogate-key lookup.
	StarTransform
)

func (s Strategy) String() string {
	if s == StarTransform {
		return "star-transform"
	}
	return "hash-join"
}

// DimInfo summarizes one dimension join as seen by the optimizer.
type DimInfo struct {
	Name string
	// Rows is the unfiltered dimension cardinality.
	Rows int
	// FilteredRows estimates rows surviving the dimension's local
	// predicates.
	FilteredRows int
	// PKJoin is true when the join is fact.fk = dim.pk — the shape the
	// star transformation requires.
	PKJoin bool
}

// Selectivity of the dimension's predicates (1 = unfiltered).
func (d DimInfo) Selectivity() float64 {
	if d.Rows == 0 {
		return 1
	}
	return float64(d.FilteredRows) / float64(d.Rows)
}

// StarShape describes a candidate star query: one fact table joined to
// dimensions.
type StarShape struct {
	FactName string
	FactRows int
	Dims     []DimInfo
}

// Eligible reports whether the star transformation is applicable at
// all: every dimension joined on its primary key, at least one filtered
// dimension to make bitmap intersection worthwhile, and no dimension
// whose *qualifying* row set rivals the fact itself (building the
// key-lookup side over such a "dimension" costs more than streaming a
// hash join; the calendar dimension with a month predicate qualifies a
// handful of rows no matter how it compares to the fact unfiltered).
func (s StarShape) Eligible() bool {
	if len(s.Dims) == 0 {
		return false
	}
	anyFiltered := false
	for _, d := range s.Dims {
		if !d.PKJoin {
			return false
		}
		if d.FilteredRows*4 > s.FactRows && d.FilteredRows > 64 {
			return false
		}
		if d.FilteredRows < d.Rows {
			anyFiltered = true
		}
	}
	return anyFiltered
}

// CombinedSelectivity multiplies the per-dimension selectivities — the
// estimated fraction of fact rows surviving the bitmap intersection.
func (s StarShape) CombinedSelectivity() float64 {
	sel := 1.0
	for _, d := range s.Dims {
		sel *= d.Selectivity()
	}
	return sel
}

// Decision is the optimizer's output, kept explainable for EXPLAIN-style
// reporting and tests.
type Decision struct {
	Strategy    Strategy
	Reason      string
	Selectivity float64
}

// EstimateFilterSelectivity is the textbook heuristic the binder uses
// for a local predicate that statistics do not cover (a string column,
// an expression, a shape analyzeFilter does not recognise).
// Kind strings match the predicate forms of the SQL subset.
func EstimateFilterSelectivity(kind string) float64 {
	switch kind {
	case "eq":
		return 0.05
	case "in":
		return 0.15
	case "between", "range":
		return 0.25
	case "like":
		return 0.4
	case "isnull":
		return 0.1
	default:
		return 0.5
	}
}
