package plan

import "math"

// Join-order search. The executor's join pipeline emits rows in a
// canonical order (probe-major: driver rows ascending, each multi-match
// expansion branching in build-row order), so the final base-row order
// is fully determined by (driver, relative order of row-expanding
// joins). The search therefore optimizes freely over tables whose
// joins provably match at most one build row (unique join keys — they
// only filter, never branch) while pinning the relative order of
// everything else to the greedy baseline's order. Under those
// constraints any order the search returns executes bit-identically to
// the baseline — the property the cost-vs-greedy differential test
// proves over all 99 templates (see DESIGN.md "Cost-based planning").

// dpMaxTables caps the dynamic-programming search: above this many
// joinable tables (2^n states) the planner keeps the greedy baseline
// order and prices it under the cost model. TPC-DS blocks join far
// fewer tables; the cap is a safety valve for ad-hoc SQL.
const dpMaxTables = 12

// SearchInput is the planner's view of one join problem.
type SearchInput struct {
	Graph Graph
	// Driver is the pinned driver table (the executor's fact-first
	// rule picks it; changing it would change output order).
	Driver int
	// Pinned tables may expand rows (no provably-unique join key) and
	// must keep this exact relative order — the greedy baseline's.
	Pinned []int
	// Free tables provably match at most one build row per probe and
	// may be placed anywhere a join edge connects them.
	Free []int
	// GreedyOrder is the baseline order (driver first, inner tables
	// only), the fallback when search is inapplicable.
	GreedyOrder []int
	// GreedyConnected is false when the baseline order contains a
	// disconnected (cartesian) placement; the search then returns the
	// baseline unchanged, because a cartesian step branches the output
	// by a table the constraint model treats as non-branching.
	GreedyConnected bool
}

// JoinPlan is the search's result: a full execution order (driver
// first) with its estimated cost and output cardinality.
type JoinPlan struct {
	Order   []int
	Cost    float64
	EstRows float64
	// Source records how the order was obtained: "dp" for a search
	// result, "greedy" for the baseline fallback.
	Source string
}

// Search finds the cheapest left-deep join order satisfying the
// order-safety constraints, falling back to the baseline order when
// the problem is too large, disconnected, or constraint-infeasible.
// The search is fully deterministic: states advance in mask order,
// extensions in item order, and only strict improvements replace a
// state.
func Search(in SearchInput) JoinPlan {
	n := len(in.Pinned) + len(in.Free)
	fallback := func() JoinPlan {
		cost, card := in.Graph.orderCost(in.Driver, in.GreedyOrder[1:])
		return JoinPlan{Order: in.GreedyOrder, Cost: cost, EstRows: card, Source: "greedy"}
	}
	if n == 0 || n > dpMaxTables || !in.GreedyConnected {
		return fallback()
	}

	// items: pinned first (their slice position is their required
	// relative rank), then free.
	items := make([]int, 0, n)
	items = append(items, in.Pinned...)
	items = append(items, in.Free...)
	numPinned := len(in.Pinned)

	// Adjacency bitmasks over item positions, plus driver adjacency.
	adj := make([]uint32, n)
	adjDriver := make([]bool, n)
	posOf := make(map[int]int, n)
	for i, t := range items {
		posOf[t] = i
	}
	for _, e := range in.Graph.Edges {
		pa, aok := posOf[e.A]
		pb, bok := posOf[e.B]
		switch {
		case aok && bok:
			adj[pa] |= 1 << uint(pb)
			adj[pb] |= 1 << uint(pa)
		case aok && e.B == in.Driver:
			adjDriver[pa] = true
		case bok && e.A == in.Driver:
			adjDriver[pb] = true
		}
	}

	// needMask[i] for a pinned item: the pinned items that must already
	// be joined before item i may be placed (all pinned ranks below i).
	needMask := make([]uint32, numPinned)
	for i := 1; i < numPinned; i++ {
		needMask[i] = needMask[i-1] | 1<<uint(i-1)
	}
	pinnedAll := uint32(0)
	if numPinned > 0 {
		pinnedAll = 1<<uint(numPinned) - 1
	}

	size := 1 << uint(n)
	cost := make([]float64, size)
	card := make([]float64, size)
	last := make([]int8, size)
	for m := range cost {
		cost[m] = math.Inf(1)
	}
	driverEst := in.Graph.Tables[in.Driver].Est
	cost[0] = driverEst * costMaterialize // driver scan emits its survivors
	card[0] = driverEst

	inMask := func(mask uint32) func(int) bool {
		return func(t int) bool {
			if t == in.Driver {
				return true
			}
			if p, ok := posOf[t]; ok {
				return mask&(1<<uint(p)) != 0
			}
			return false
		}
	}
	for mask := 0; mask < size; mask++ {
		if math.IsInf(cost[mask], 1) {
			continue
		}
		m := uint32(mask)
		for i := 0; i < n; i++ {
			bit := uint32(1) << uint(i)
			if m&bit != 0 {
				continue
			}
			if !adjDriver[i] && adj[i]&m == 0 {
				continue // disconnected placement: would branch by row id
			}
			if i < numPinned && m&pinnedAll != needMask[i] {
				continue // would break the pinned relative order
			}
			t := items[i]
			est := in.Graph.Tables[t].Est
			out := in.Graph.joinCard(card[mask], inMask(m), t)
			next := mask | int(bit)
			c := cost[mask] + float64(in.Graph.Tables[t].Rows)*costScan +
				est*costBuild + card[mask]*costProbe + out*costMaterialize
			if c < cost[next] {
				cost[next] = c
				card[next] = out
				last[next] = int8(i)
			}
		}
	}
	full := size - 1
	if math.IsInf(cost[full], 1) {
		return fallback() // join graph not connected from the driver
	}
	order := make([]int, 0, n+1)
	for mask := full; mask != 0; {
		i := int(last[mask])
		order = append(order, items[i])
		mask &^= 1 << uint(i)
	}
	order = append(order, in.Driver)
	for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
		order[l], order[r] = order[r], order[l]
	}
	return JoinPlan{Order: order, Cost: cost[full], EstRows: card[full], Source: "dp"}
}
