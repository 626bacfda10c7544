package core

import (
	"fmt"
	"sort"

	"vf2boost/internal/dataset"
)

// Online scoring session protocol. Unlike the one-shot prediction exchange
// (predict.go), an online session is opened once and then serves an
// unbounded stream of scoring rounds: Party B pins a model version and a
// round ID per micro-batch, every passive party answers with routing
// bitmaps over just the requested rows, and the session ends with an
// explicit close handshake. The orchestration (registries, batching, HTTP)
// lives in internal/serve; this file owns the wire messages and the pure
// placement/routing computations both sides share.

// ScoreProtoVersion versions the online scoring wire protocol. A party
// that receives an unknown version answers with a structured error instead
// of guessing.
const ScoreProtoVersion = 1

// MsgScoreOpen starts an online scoring session. Session is an opaque
// identifier echoed in logs/traces on both sides.
type MsgScoreOpen struct {
	Proto   int
	Session string
}

// MsgScoreOpenAck answers MsgScoreOpen with the worker's shard shape and
// published model versions, or a structured error.
type MsgScoreOpenAck struct {
	Proto    int
	Party    int
	Rows     int
	Versions []uint64
	Error    string
}

// MsgScoreRequest asks for routing bitmaps over the listed shard rows,
// pinned to one model version. Round increases per request on a session
// and is echoed back, so a response can never be attributed to the wrong
// batch.
type MsgScoreRequest struct {
	Round   uint64
	Version uint64
	Rows    []int32
}

// MsgScoreResponse carries one routing bitmap per split node the worker's
// pinned-version fragment owns (bit k = k-th requested row goes left), or
// a structured error. An error fails the round but keeps the session open.
type MsgScoreResponse struct {
	Round   uint64
	Version uint64
	Party   int
	Nodes   []PredictNodeBits
	Error   string
}

// MsgScoreClose ends a scoring session cleanly; the worker acknowledges
// with MsgScoreCloseAck and returns.
type MsgScoreClose struct {
	Reason string
}

// MsgScoreCloseAck confirms session teardown.
type MsgScoreCloseAck struct{}

// RouteKey addresses one passive-owned split node in a routing table.
type RouteKey struct {
	Party int
	Tree  int
	Node  int32
}

// ScorePlacements computes the routing bitmaps a passive fragment
// contributes for the given shard rows: one PredictNodeBits per split node
// the fragment owns, with bit k describing the k-th requested row. A nil
// rows slice means "every shard row in order" (the one-shot prediction
// protocol's shape).
func ScorePlacements(fragment *PartyModel, data *dataset.Dataset, rows []int32) ([]PredictNodeBits, error) {
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
				bits[k] = goesLeftRaw(data, r, nd.Feature, nd.Threshold)
			}
			out = append(out, PredictNodeBits{Tree: ti, Node: id, Bits: packBitmap(bits)})
		}
	}
	return out, nil
}

// RouteMargins routes every requested row through every tree of Party B's
// fragment, consulting routes (bit k = batch position k) for nodes owned
// by passive parties, and returns baseScore + learningRate·Σ leaf weights
// per row. A nil rows slice scores every shard row in order.
func RouteMargins(bFragment *PartyModel, learningRate, baseScore float64, bData *dataset.Dataset, rows []int32, routes map[RouteKey][]byte) ([]float64, error) {
	out, _, err := routeMargins(bFragment, learningRate, baseScore, bData, rows, routes, nil)
	return out, err
}

// RoutePartialMargins is RouteMargins for a degraded round: trees that
// contain a split node owned by any party in missing are skipped whole
// (a tree is either fully routed or not counted at all — no mid-tree
// guessing), and the returned count says how many were. With an empty
// missing set it is exactly RouteMargins.
func RoutePartialMargins(bFragment *PartyModel, learningRate, baseScore float64, bData *dataset.Dataset, rows []int32, routes map[RouteKey][]byte, missing map[int]bool) ([]float64, int, error) {
	return routeMargins(bFragment, learningRate, baseScore, bData, rows, routes, missing)
}

// routeMargins is the shared traversal behind RouteMargins and
// RoutePartialMargins. missing marks parties whose routing bits are
// unavailable this round; trees touching them are skipped and counted.
func routeMargins(bFragment *PartyModel, learningRate, baseScore float64, bData *dataset.Dataset, rows []int32, routes map[RouteKey][]byte, missing map[int]bool) ([]float64, int, error) {
	n := len(rows)
	if rows == nil {
		n = bData.Rows()
	}
	// A tree is routable only if every split it contains belongs to B or
	// to a present party; decide per tree, not per node, so partial
	// margins stay a sum of whole-tree contributions.
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
					left = goesLeftRaw(bData, r, nd.Feature, nd.Threshold)
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
