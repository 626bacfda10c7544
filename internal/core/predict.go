package core

import (
	"fmt"

	"vf2boost/internal/dataset"
)

// Federated prediction: after training, each party keeps only its own
// model fragment, so scoring new (aligned) instances is itself a
// protocol. The exchange mirrors training's placement messages: Party B
// announces the instance count, every passive party answers with one
// routing bitmap per split node it owns (bit i set = instance i routes
// left), and B — which knows the full tree structure — routes every
// instance locally. Passive parties reveal exactly the same information
// as during training (placements), never features or thresholds.

// MsgPredictStart asks a passive party for routing bitmaps over its
// current dataset rows.
type MsgPredictStart struct {
	Rows int
}

// MsgPredictPlacements answers with one bitmap per owned split node, or
// an error description when the request cannot be served.
type MsgPredictPlacements struct {
	Party int
	Nodes []PredictNodeBits
	Last  bool
	Error string
}

// PredictNodeBits is the routing bitmap of one owned node of one tree.
type PredictNodeBits struct {
	Tree int
	Node int32
	Bits []byte
}

// ServePredict answers prediction queries for a passive party: it blocks
// for one MsgPredictStart, streams the routing bitmaps for every split
// node the fragment owns, and returns. data must hold the party's feature
// shard of the instances to score, aligned with the other parties.
func ServePredict(fragment *PartyModel, data *dataset.Dataset, tr Transport) error {
	l := NewLink(tr)
	msg, err := l.recv()
	if err != nil {
		return err
	}
	start, ok := msg.(MsgPredictStart)
	if !ok {
		return fmt.Errorf("core: expected MsgPredictStart, got %T", msg)
	}
	return servePredictRound(l, CompileOwnedSplits(fragment), data, start)
}

// servePredictRound answers one MsgPredictStart. A row mismatch is
// reported to the querying party (so it never hangs) and returned as an
// error for the caller to decide whether the session survives.
func servePredictRound(l *link, table *RouteTable, data *dataset.Dataset, start MsgPredictStart) error {
	party := table.Party()
	if start.Rows != data.Rows() {
		err := fmt.Errorf("core: predict rows %d, shard has %d", start.Rows, data.Rows())
		// Tell the querying party before failing, so it does not hang.
		_ = l.send(MsgPredictPlacements{Party: party, Last: true, Error: err.Error()})
		return err
	}
	nodes, err := table.Score(data, nil)
	if err != nil {
		_ = l.send(MsgPredictPlacements{Party: party, Last: true, Error: err.Error()})
		return err
	}
	return l.send(MsgPredictPlacements{Party: party, Nodes: nodes, Last: true})
}

// PredictRemote scores aligned instances from Party B's side: bData is
// B's feature shard, bFragment its model fragment (which holds the full
// structure), and trs one transport per passive party currently serving
// ServePredict. It returns raw margins. A passive answer whose bitmaps are
// not ⌈rows/8⌉ bytes each is refused with an ErrRoutingBits naming the
// party, tree and node.
func PredictRemote(bFragment *PartyModel, learningRate float64, bData *dataset.Dataset, trs []Transport) ([]float64, error) {
	n := bData.Rows()
	// Collect passive routing bitmaps.
	answers := make([][]PredictNodeBits, len(trs))
	for pi, tr := range trs {
		l := NewLink(tr)
		if err := l.send(MsgPredictStart{Rows: n}); err != nil {
			return nil, err
		}
		msg, err := l.recv()
		if err != nil {
			return nil, err
		}
		pl, ok := msg.(MsgPredictPlacements)
		if !ok {
			return nil, fmt.Errorf("core: expected MsgPredictPlacements, got %T", msg)
		}
		if pl.Error != "" {
			return nil, fmt.Errorf("core: party %d cannot serve prediction: %s", pi, pl.Error)
		}
		answers[pi] = pl.Nodes
	}
	table, err := CompileFragment(bFragment)
	if err != nil {
		return nil, err
	}
	rb := table.NewRoundBits(n)
	for pi, nodes := range answers {
		if err := rb.Place(pi, nodes); err != nil {
			return nil, err
		}
	}
	margins, _, err := table.RouteMargins(learningRate, 0, bData, nil, rb, nil)
	return margins, err
}
