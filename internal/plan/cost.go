package plan

import "fmt"

// The cost model. Costs are abstract units. The constants were tuned
// when every intermediate row was a fresh full-width []storage.Value
// (columnar touch vs wide-row materialization: nanoseconds vs on the
// order of a thousand column-touches). The executor now carries
// intermediates as per-table row-id vectors, so an emitted row costs a
// few 4-byte appends; the constants are deliberately left as they were
// until they are recalibrated against the benchmark. Bitmap and hash
// indexes are cached across queries, so the star transformation's
// per-query cost is the dimension key-set scans plus fetching only the
// qualifying fact rows — not the index builds. The absolute scale is
// meaningless; only ratios steer decisions, and the star-vs-hash
// ablation (BenchmarkStarVsHashAllTemplates in internal/exec,
// EXPERIMENTS.md) checks the decisions against measured per-template
// latencies.
const (
	// costScan is charged per build-side row scanned: filtering a
	// table's rows for a hash build walks the whole column regardless
	// of how few survive — the same full columnar scan the star
	// transformation's key-set pass is charged for (costBitmap).
	costScan = 1.0
	// costBuild is charged per surviving row inserted into a hash-join
	// build table.
	costBuild = 1.0
	// costProbe is charged per hash-table lookup (no materialization).
	costProbe = 0.2
	// costMaterialize is charged per intermediate row emitted (one row
	// id per joined table since the rowSet executor; the value predates
	// it): the driver scan's surviving rows, every join step's output
	// rows, and the star transformation's qualifying fact rows.
	costMaterialize = 50.0
	// costBitmap is charged per dimension row scanned while building
	// the star transformation's per-dimension key sets (the fact-side
	// bitmap indexes are cached across queries).
	costBitmap = 1.0
)

// TableCard is one joinable table as the planner sees it: its raw row
// count and its estimated cardinality after local filters.
type TableCard struct {
	Name string
	Rows int
	Est  float64
}

// Edge is one equi-join edge between tables A and B (indexes into the
// Graph's Tables). NDVA/NDVB are the distinct-value counts of the join
// columns on each side; 0 means unknown.
type Edge struct {
	A, B       int
	NDVA, NDVB float64
}

// Graph is the join graph the planner searches: tables, equi-join
// edges, and the driver the execution engine pins (see SearchInput).
type Graph struct {
	Tables []TableCard
	Edges  []Edge
}

// joinCard estimates the cardinality of joining an intermediate result
// of curCard rows (covering the tables in mask ∪ {driver}) with table
// t: the textbook |L⋈R| = |L|·|R| / max(V(L,a),V(R,b)) per connecting
// edge. inMask reports which tables the intermediate covers.
func (g *Graph) joinCard(curCard float64, inMask func(int) bool, t int) float64 {
	est := g.Tables[t].Est
	out := curCard * est
	for _, e := range g.Edges {
		var ndv float64
		switch {
		case e.A == t && inMask(e.B):
			ndv = maxf(e.NDVA, e.NDVB)
		case e.B == t && inMask(e.A):
			ndv = maxf(e.NDVA, e.NDVB)
		default:
			continue
		}
		if ndv < 1 {
			// Unknown NDV: assume the larger side's filtered estimate is
			// all-distinct — conservative for key/foreign-key joins.
			ndv = maxf(est, 1)
		}
		out /= ndv
	}
	if out < 0 {
		out = 0
	}
	return out
}

// orderCost walks a join order (table indexes, driver excluded) and
// returns its total cost and final cardinality under the model: the
// driver scan emits its surviving rows, then each step builds the next
// table's filtered rows into a hash table, probes it with every
// intermediate row, and emits the join's output.
func (g *Graph) orderCost(driver int, order []int) (cost, card float64) {
	card = g.Tables[driver].Est
	cost = card * costMaterialize // driver scan emits its survivors
	joined := make([]bool, len(g.Tables))
	joined[driver] = true
	for _, t := range order {
		est := g.Tables[t].Est
		out := g.joinCard(card, func(i int) bool { return joined[i] }, t)
		cost += float64(g.Tables[t].Rows)*costScan + est*costBuild +
			card*costProbe + out*costMaterialize
		card = out
		joined[t] = true
	}
	return cost, card
}

// EstimateStarCost estimates executing a star-shaped query via the
// bitmap star transformation: scan each dimension to build its key set
// (the fact bitmaps are cached), intersect, then materialize only the
// qualifying fact rows, resolving each dimension by key lookup.
func EstimateStarCost(shape StarShape) float64 {
	cost := 0.0
	for _, d := range shape.Dims {
		cost += float64(d.Rows) * costBitmap
	}
	qual := shape.CombinedSelectivity() * float64(shape.FactRows)
	cost += qual * (costMaterialize + costProbe*float64(len(shape.Dims)))
	return cost
}

// ChooseCost picks the physical strategy from estimated costs; it is
// the engine's one star rule. Mode constraints (the tests' forced
// references) win over estimates, and ineligible shapes always take the
// hash pipeline.
func ChooseCost(shape StarShape, hashCost float64, mode Mode) Decision {
	sel := shape.CombinedSelectivity()
	switch mode {
	case ForceHashJoin:
		return Decision{HashJoinPipeline, "forced by mode", sel}
	case ForceStar:
		if shape.Eligible() {
			return Decision{StarTransform, "forced by mode", sel}
		}
		return Decision{HashJoinPipeline, "star shape not eligible", sel}
	}
	if !shape.Eligible() {
		return Decision{HashJoinPipeline, "star shape not eligible", sel}
	}
	starCost := EstimateStarCost(shape)
	if starCost < hashCost {
		return Decision{StarTransform,
			fmt.Sprintf("estimated star cost %.0f below hash cost %.0f", starCost, hashCost), sel}
	}
	return Decision{HashJoinPipeline,
		fmt.Sprintf("estimated hash cost %.0f below star cost %.0f", hashCost, starCost), sel}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
