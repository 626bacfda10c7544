package core

import (
	"math"
	"testing"
)

// TestScorePlacementsRouteMargins: the micro-batch helpers must reproduce
// the glued model's margins on an arbitrary row subset, including
// duplicated and out-of-order rows.
func TestScorePlacementsRouteMargins(t *testing.T) {
	_, parts := twoPartyData(t, 200, 5, 4, 1, true, 84)
	cfg := quickConfig(SchemeMock)
	cfg.Trees = 3
	m, _ := trainFed(t, parts, cfg)
	want, err := m.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}

	rows := []int32{17, 3, 3, 199, 0, 42}
	nodes, err := ScorePlacements(m.Parties[0], parts[0], rows)
	if err != nil {
		t.Fatal(err)
	}
	routes := make(map[RouteKey][]byte)
	for _, nb := range nodes {
		routes[RouteKey{Party: 0, Tree: nb.Tree, Node: nb.Node}] = nb.Bits
	}
	got, err := RouteMargins(m.Parties[1], m.LearningRate, m.BaseScore, parts[1], rows, routes)
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range rows {
		if math.Abs(got[k]-want[r]) > 1e-12 {
			t.Errorf("row %d margin %g, want %g", r, got[k], want[r])
		}
	}

	// Out-of-range rows are rejected on both sides.
	if _, err := ScorePlacements(m.Parties[0], parts[0], []int32{10_000}); err == nil {
		t.Error("ScorePlacements accepted an out-of-range row")
	}
	if _, err := RouteMargins(m.Parties[1], m.LearningRate, 0, parts[1], []int32{-1}, routes); err == nil {
		t.Error("RouteMargins accepted a negative row")
	}
}
