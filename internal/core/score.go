package core

import (
	"vf2boost/internal/dataset"
)

// Federated scoring session protocol. After training, each party keeps
// only its own model fragment, so scoring aligned instances is itself a
// protocol, and this is the only one: a session is opened once and then
// serves a stream of scoring rounds. Party B pins a model version and a
// round ID per batch of rows, every passive party answers with its routing
// bits over just the requested rows — per tree, only the bits of the rows
// its own splits send toward each of its splits (reach.go) — and B, which
// knows the full tree structure, routes every row locally. Before the
// first round at a version, B sends each party the reach links of that
// version (MsgScoreReach). The session ends with an explicit close
// handshake. Passive parties reveal at most what they reveal during
// training (placements), never features or thresholds. Online serving and
// batch prediction (`vf2boost predict`, one session in rounds of a fixed
// row count) both run it; the orchestration (registries, batching, HTTP)
// lives in internal/serve. This file owns the wire messages and the
// map-keyed entry points to the compiled routing tables (routes.go) both
// sides share.

// ScoreProtoVersion versions the online scoring wire protocol. A party
// that receives an unknown version answers with a structured error instead
// of guessing. Version 2 answers with pruned per-tree bits; version 1
// answered with one full bitmap per split.
const ScoreProtoVersion = 2

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

// MsgScoreRequest asks for routing bits over the listed shard rows,
// pinned to one model version. Round increases per request on a session
// and is echoed back, so a response can never be attributed to the wrong
// batch.
type MsgScoreRequest struct {
	Round   uint64
	Version uint64
	Rows    []int32
}

// MsgScoreReach gives a passive party the reach links of one model
// version (Party B's RouteTable.Reach for that party). B sends it on a
// session before the first request pinned to the version; the party binds
// it to its fragment (RouteTable.Bind) and answers every round at the
// version in that order.
type MsgScoreReach struct {
	Version uint64
	Trees   []ReachTree
}

// MsgScoreResponse carries, per tree in which Party B reads any of the
// party's splits, one PredictNodeBits addressed by the tree's root whose
// Bits pack the pruned routing bits of the round's rows (RouteTable.Score),
// or a structured error. An error fails the round but keeps the session
// open.
type MsgScoreResponse struct {
	Round   uint64
	Version uint64
	Party   int
	Nodes   []PredictNodeBits
	Error   string
}

// PredictNodeBits is a routing bitmap: in memory, the full bitmap of one
// owned node of one tree (bit k = k-th row goes left); on the wire, one
// tree's pruned bits under the tree's root.
type PredictNodeBits struct {
	Tree int
	Node int32
	Bits []byte
}

// MsgScoreClose ends a scoring session cleanly; the worker acknowledges
// with MsgScoreCloseAck and returns.
type MsgScoreClose struct {
	Reason string
}

// MsgScoreCloseAck confirms session teardown.
type MsgScoreCloseAck struct{}

// RouteKey addresses one passive-owned split node: the bitmap slot of a
// RouteTable that reads it.
type RouteKey struct {
	Party int
	Tree  int
	Node  int32
}

// ScorePlacements computes the full routing bitmaps a passive fragment
// contributes for the given shard rows: one PredictNodeBits per split node
// the fragment owns, with bit k describing the k-th requested row. A nil
// rows slice means "every shard row in order". It is the in-process form
// of an answer and compiles the fragment on every call; a party that
// answers rounds compiles once (CompileOwnedSplits), binds B's reach links
// and calls Score.
func ScorePlacements(fragment *PartyModel, data *dataset.Dataset, rows []int32) ([]PredictNodeBits, error) {
	t := &RouteTable{party: fragment.Party}
	t.compileOwned(fragment)
	return t.placements(data, rows)
}

// RouteMargins routes every requested row through every tree of Party B's
// fragment, consulting routes (bit k = batch position k) for nodes owned
// by passive parties, and returns baseScore + learningRate·Σ leaf weights
// per row. A nil rows slice scores every shard row in order.
func RouteMargins(bFragment *PartyModel, learningRate, baseScore float64, bData *dataset.Dataset, rows []int32, routes map[RouteKey][]byte) ([]float64, error) {
	out, _, err := RoutePartialMargins(bFragment, learningRate, baseScore, bData, rows, routes, nil)
	return out, err
}

// RoutePartialMargins is RouteMargins for a degraded round: trees that
// contain a split node owned by any party in missing are skipped whole
// (a tree is either fully routed or not counted at all — no mid-tree
// guessing), and the returned count says how many were. With an empty
// missing set it is exactly RouteMargins. Both compile the fragment on
// every call; a scoring service compiles once (CompileFragment) and calls
// RouteTable.RouteMargins.
func RoutePartialMargins(bFragment *PartyModel, learningRate, baseScore float64, bData *dataset.Dataset, rows []int32, routes map[RouteKey][]byte, missing map[int]bool) ([]float64, int, error) {
	t, err := CompileFragment(bFragment)
	if err != nil {
		return nil, 0, err
	}
	n, err := checkRows(bData, rows)
	if err != nil {
		return nil, 0, err
	}
	rb := t.NewRoundBits(n)
	for k, bits := range routes {
		if err := rb.placeFull(k.Party, []PredictNodeBits{{Tree: k.Tree, Node: k.Node, Bits: bits}}); err != nil {
			return nil, 0, err
		}
	}
	return t.RouteMargins(learningRate, baseScore, bData, rows, rb, missing)
}
