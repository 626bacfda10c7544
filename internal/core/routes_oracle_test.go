package core

import (
	"fmt"
	"sort"

	"vf2boost/internal/dataset"
)

// The map walkers the compiled routing tables replaced, kept verbatim in
// behavior as the reference the tables must agree with bit for bit: the
// glued-model walk (oraclePredictTree), the passive party's per-node row
// loop (oracleScorePlacements) and Party B's hop-by-hop router
// (oracleRouteMargins). They walk the fragments' maps on every row and
// check the structure only where a row goes.

// oracleGoesLeft applies the shared split semantics on raw values: stored
// value <= threshold goes left, missing goes left.
func oracleGoesLeft(d *dataset.Dataset, i int, feature int32, threshold float64) bool {
	cols, vals := d.Row(i)
	k := sort.Search(len(cols), func(x int) bool { return cols[x] >= feature })
	if k < len(cols) && cols[k] == feature {
		return vals[k] <= threshold
	}
	return true
}

// oraclePredictTree walks row i of the aligned datasets through tree t of
// the glued model and returns its leaf weight.
func oraclePredictTree(m *FederatedModel, t int, parts []*dataset.Dataset, i int) (float64, error) {
	bTree := m.Parties[len(m.Parties)-1].Trees[t]
	id := bTree.Root
	for depth := 0; ; depth++ {
		if depth > 64 {
			return 0, fmt.Errorf("core: tree %d traversal did not terminate", t)
		}
		bn, ok := bTree.Nodes[id]
		if !ok {
			return 0, fmt.Errorf("core: tree %d missing node %d", t, id)
		}
		if bn.Owner == OwnerLeaf {
			return bn.Weight, nil
		}
		on, ok := m.Parties[bn.Owner].Trees[t].Nodes[id]
		if !ok {
			return 0, fmt.Errorf("core: tree %d node %d missing from owner party %d", t, id, bn.Owner)
		}
		if oracleGoesLeft(parts[bn.Owner], i, on.Feature, on.Threshold) {
			id = bn.Left
		} else {
			id = bn.Right
		}
	}
}

// oraclePredict returns the [output][row] margins of the first ntrees
// trees, row by row: tree t adds to output t mod outputs.
func oraclePredict(m *FederatedModel, parts []*dataset.Dataset, ntrees, outputs int) ([][]float64, error) {
	n := parts[0].Rows()
	out := make([][]float64, outputs)
	for c := range out {
		out[c] = make([]float64, n)
		for i := range out[c] {
			out[c][i] = m.BaseScore
		}
	}
	for i := 0; i < n; i++ {
		for t := 0; t < ntrees; t++ {
			w, err := oraclePredictTree(m, t, parts, i)
			if err != nil {
				return nil, err
			}
			out[t%outputs][i] += m.LearningRate * w
		}
	}
	return out, nil
}

// oracleScorePlacements computes a passive fragment's routing bitmaps one
// (node, row) at a time.
func oracleScorePlacements(fragment *PartyModel, data *dataset.Dataset, rows []int32) ([]PredictNodeBits, error) {
	n := len(rows)
	if rows == nil {
		n = data.Rows()
	}
	for _, r := range rows {
		if r < 0 || int(r) >= data.Rows() {
			return nil, fmt.Errorf("core: score row %d outside shard of %d rows", r, data.Rows())
		}
	}
	var out []PredictNodeBits
	bits := make([]bool, n)
	for ti, tree := range fragment.Trees {
		ids := make([]int32, 0, len(tree.Nodes))
		for id := range tree.Nodes {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			nd := tree.Nodes[id]
			if nd.Owner != fragment.Party {
				continue
			}
			for k := 0; k < n; k++ {
				r := k
				if rows != nil {
					r = int(rows[k])
				}
				bits[k] = oracleGoesLeft(data, r, nd.Feature, nd.Threshold)
			}
			out = append(out, PredictNodeBits{Tree: ti, Node: id, Bits: packBitmap(bits)})
		}
	}
	return out, nil
}

// oracleRouteMargins routes row by row, tree by tree, hop by hop through
// Party B's fragment, skipping whole every tree that holds a split of a
// party in missing.
func oracleRouteMargins(bFragment *PartyModel, learningRate, baseScore float64, bData *dataset.Dataset, rows []int32, routes map[RouteKey][]byte, missing map[int]bool) ([]float64, int, error) {
	n := len(rows)
	if rows == nil {
		n = bData.Rows()
	}
	skip := make([]bool, len(bFragment.Trees))
	skipped := 0
	if len(missing) > 0 {
		for ti, tree := range bFragment.Trees {
			for _, nd := range tree.Nodes {
				if nd.Owner != OwnerLeaf && nd.Owner != bFragment.Party && missing[nd.Owner] {
					skip[ti] = true
					skipped++
					break
				}
			}
		}
	}
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		r := k
		if rows != nil {
			r = int(rows[k])
		}
		if r < 0 || r >= bData.Rows() {
			return nil, 0, fmt.Errorf("core: score row %d outside shard of %d rows", r, bData.Rows())
		}
		margin := baseScore
		for ti, tree := range bFragment.Trees {
			if skip[ti] {
				continue
			}
			id := tree.Root
			for hop := 0; ; hop++ {
				if hop > 64 {
					return nil, 0, fmt.Errorf("core: scoring traversal of tree %d did not terminate", ti)
				}
				nd, ok := tree.Nodes[id]
				if !ok {
					return nil, 0, fmt.Errorf("core: tree %d missing node %d", ti, id)
				}
				if nd.Owner == OwnerLeaf {
					margin += learningRate * nd.Weight
					break
				}
				var left bool
				if nd.Owner == bFragment.Party {
					left = oracleGoesLeft(bData, r, nd.Feature, nd.Threshold)
				} else {
					bits, ok := routes[RouteKey{Party: nd.Owner, Tree: ti, Node: id}]
					if !ok {
						return nil, 0, fmt.Errorf("core: no routing bits from party %d for tree %d node %d", nd.Owner, ti, id)
					}
					left = bitmapGet(bits, k)
				}
				if left {
					id = nd.Left
				} else {
					id = nd.Right
				}
			}
		}
		out[k] = margin
	}
	return out, skipped, nil
}
