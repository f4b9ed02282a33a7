package plan

import "testing"

func shape(factRows int, dims ...DimInfo) StarShape {
	return StarShape{FactName: "store_sales", FactRows: factRows, Dims: dims}
}

func TestEligibility(t *testing.T) {
	// No dimensions: not a star.
	if shape(1000000).Eligible() {
		t.Error("empty dim list should not be eligible")
	}
	// Non-PK join disqualifies.
	s := shape(1000000, DimInfo{Name: "item", Rows: 100, FilteredRows: 10, PKJoin: false})
	if s.Eligible() {
		t.Error("non-PK join should disqualify star")
	}
	// A dimension whose qualifying rows rival the fact disqualifies.
	s = shape(1000, DimInfo{Name: "big", Rows: 1000, FilteredRows: 900, PKJoin: true})
	if s.Eligible() {
		t.Error("barely-filtered oversized dimension should disqualify star")
	}
	// A large dimension with a selective filter stays eligible (the
	// calendar dimension case at development scale).
	s = shape(1000, DimInfo{Name: "date_dim", Rows: 73049, FilteredRows: 30, PKJoin: true})
	if !s.Eligible() {
		t.Error("selectively filtered large dimension should stay eligible")
	}
	// No filtered dimension: bitmap intersection is pointless.
	s = shape(1000000, DimInfo{Name: "date_dim", Rows: 100, FilteredRows: 100, PKJoin: true})
	if s.Eligible() {
		t.Error("unfiltered star should not be eligible")
	}
	// The good case.
	s = shape(1000000,
		DimInfo{Name: "date_dim", Rows: 1000, FilteredRows: 30, PKJoin: true},
		DimInfo{Name: "item", Rows: 500, FilteredRows: 500, PKJoin: true})
	if !s.Eligible() {
		t.Error("classic star shape should be eligible")
	}
}

func TestCombinedSelectivity(t *testing.T) {
	s := shape(1000000,
		DimInfo{Rows: 100, FilteredRows: 10, PKJoin: true},
		DimInfo{Rows: 100, FilteredRows: 50, PKJoin: true})
	if got := s.CombinedSelectivity(); got != 0.05 {
		t.Errorf("combined selectivity = %v, want 0.05", got)
	}
	if (DimInfo{}).Selectivity() != 1 {
		t.Error("zero-row dimension should have selectivity 1")
	}
}

func TestChooseCostByEstimate(t *testing.T) {
	s := shape(1000000,
		DimInfo{Name: "date_dim", Rows: 1000, FilteredRows: 10, PKJoin: true})
	star := EstimateStarCost(s)
	if d := ChooseCost(s, 2*star, Auto); d.Strategy != StarTransform {
		t.Errorf("star cheaper than hash chose %v (%s)", d.Strategy, d.Reason)
	}
	if d := ChooseCost(s, star/2, Auto); d.Strategy != HashJoinPipeline {
		t.Errorf("hash cheaper than star chose %v (%s)", d.Strategy, d.Reason)
	}
	// An ineligible shape takes the hash pipeline whatever the costs.
	broad := shape(1000, DimInfo{Name: "big", Rows: 1000, FilteredRows: 900, PKJoin: true})
	if d := ChooseCost(broad, 1e18, Auto); d.Strategy != HashJoinPipeline {
		t.Errorf("ineligible shape chose %v (%s)", d.Strategy, d.Reason)
	}
}

func TestChooseForcedModes(t *testing.T) {
	s := shape(1000000,
		DimInfo{Name: "date_dim", Rows: 1000, FilteredRows: 10, PKJoin: true})
	star := EstimateStarCost(s)
	if d := ChooseCost(s, 2*star, ForceHashJoin); d.Strategy != HashJoinPipeline {
		t.Errorf("ForceHashJoin chose %v", d.Strategy)
	}
	if d := ChooseCost(s, star/2, ForceStar); d.Strategy != StarTransform {
		t.Errorf("ForceStar chose %v", d.Strategy)
	}
	// ForceStar on an ineligible shape (non-PK join) falls back.
	bad := shape(100000, DimInfo{Name: "d", Rows: 99, FilteredRows: 1, PKJoin: false})
	if d := ChooseCost(bad, 1e18, ForceStar); d.Strategy != HashJoinPipeline {
		t.Errorf("ineligible ForceStar should fall back to hash join, got %v", d.Strategy)
	}
}

func TestSelectivityEstimates(t *testing.T) {
	order := []string{"eq", "isnull", "in", "between", "like", "other"}
	prev := 0.0
	for _, k := range order {
		s := EstimateFilterSelectivity(k)
		if s <= 0 || s > 1 {
			t.Errorf("selectivity(%s) = %v out of (0,1]", k, s)
		}
		if s < prev {
			t.Errorf("selectivity(%s) = %v breaks monotone ordering", k, s)
		}
		prev = s
	}
}

func TestStrings(t *testing.T) {
	if Auto.String() != "auto" || ForceStar.String() != "force-star" ||
		ForceHashJoin.String() != "force-hash-join" {
		t.Error("Mode.String broken")
	}
	if StarTransform.String() != "star-transform" || HashJoinPipeline.String() != "hash-join" {
		t.Error("Strategy.String broken")
	}
}
