package core

import (
	"context"
	"errors"
	"fmt"

	"vf2boost/internal/wire"
)

// Wire messages between Party B and each passive party. All cross-party
// traffic is encoded by the typed binary codec (see internal/wire and
// wirecodec.go) and carried over an mq topic pair, so the exact same
// engine runs in-process, through the WAN shaper, or across the TCP
// gateway.

// ErrLegacyLayout is the session error for a peer that still speaks a
// retired layout: the two-ciphertext scalar layout (wire ids 3, 4, 22,
// 28), refused at setup, or the one-frame node layout, whose id-33 frame
// carried the node's ciphertexts itself. Neither has a compatibility
// mode.
var ErrLegacyLayout = errors.New("core: peer speaks a retired layout")

// ErrSiblingDerivation marks a sibling announcement Party B cannot honour:
// a non-root child that arrives unannounced, a root that announces a
// split, an unknown or foreign parent, a node announced twice, mismatched
// bin counts, or a derived ⟨g,h⟩ field outside its share of the
// plaintext — the histogram-side counterpart of fixedpoint.ErrPairRange.
var ErrSiblingDerivation = errors.New("core: sibling histogram derivation rejected")

// ErrPackedLayout marks a node-layout frame that contradicts itself or
// the session's plan: a header's bitmaps, a ciphertext frame before its
// header, twice, or beyond the header's chunk count, a plaintext wider
// than its chunk.
var ErrPackedLayout = errors.New("core: packed node histogram rejected")

// ErrShiftCiphertext marks a setup whose packing-shift ciphertext is
// missing or is not a ciphertext under the announced key.
var ErrShiftCiphertext = errors.New("core: setup shift ciphertext rejected")

// Upper bounds on the sizes a peer's frames may dictate, checked before
// they size a codec table, a modulus, a per-class buffer or a bin vector
// (maxWireBins is Config.MaxBins' own ceiling).
const (
	maxWireExp     = 64
	maxWireKeyBits = 1 << 15
	maxWireOutputs = 1 << 10
	maxWireBins    = 256
)

// MsgSetup is sent once by B to each passive party before training: the
// public key material and the encoding parameters both sides must share.
type MsgSetup struct {
	Scheme    string
	N         []byte // public modulus (paillier) or width marker (mock)
	Bits      int
	BaseExp   int
	ExpSpread int
	// PairBits is W, the low-field width of the folded ⟨g,h⟩ plaintext
	// (fixedpoint.PairPlan) every scalar session runs; a scalar setup
	// without it comes from a peer that still streams two ciphertexts per
	// instance and is refused (ErrLegacyLayout). PackBits, when non-zero,
	// enables histogram packing with slots of that width; the only width
	// the folded layout uses is 2·PairBits. Zero ships the same node
	// layout with one slot per ciphertext.
	PairBits int
	PackBits int
	// ShiftCt is B's encryption of the packing shift 2^(2·PairBits−1),
	// which seeds every prefix chain a passive party packs. Only B
	// encrypts: a passive party adds, shifts and packs what B sends.
	ShiftCt []byte
	// Objective, when non-empty, names the negotiated multi-output
	// training objective ("multiclass:3", "ranking:10", "squared") and
	// Outputs its per-round tree count k; the passive party must resolve
	// the name in its own objective registry or reject the session before
	// accepting any ciphertext. Empty means the default binary objective
	// (k = 1) — B leaves it empty for binary sessions, so their setup
	// frame stays byte-identical to the pre-objective wire format.
	Objective string
	Outputs   int
}

// MsgReady is a passive party's answer to MsgSetup: its shape, which B
// needs for the global feature order and the instance-alignment check.
type MsgReady struct {
	Party    int
	Features int
	Rows     int
}

// MsgResume follows MsgReady during session setup: it announces how many
// completed boosting rounds the passive party restored from its local
// checkpoint store (0 when starting fresh). Party B resumes from the
// minimum round across its own checkpoint and every passive party's
// announcement, so no party is ever asked to continue past state it
// lacks; parties ahead of the chosen round discard and rebuild the
// replayed trees deterministically.
type MsgResume struct {
	Party int
	Trees int
}

// MsgPairBatch carries the folded ⟨g,h⟩ ciphertexts of a contiguous
// instance range: one ciphertext and one exponent per instance. With
// blaster encryption many small batches stream per tree; without it a
// single batch carries everything.
type MsgPairBatch struct {
	Tree  int
	Start int
	Cts   [][]byte
	Exp   []int16
	Last  bool
	// Class is the output index the pairs belong to in a multi-output
	// round (0 in binary sessions). A round of a k-output objective ships
	// k class streams back-to-back under the same shipment tree ID; Tree
	// stays the round's first global tree index (round·k) and the class
	// c histogram round runs under tree round·k+c.
	Class int
}

// MsgGradBatch is the retired two-ciphertext gradient frame (wire ids 3
// and 28). No engine sends it; it stays decodable so a passive party can
// refuse a peer that still does by name (ErrLegacyLayout), and because
// benchmark/probes.go — which a protocol change may not edit — times its
// codec. Delete it together with that probe.
type MsgGradBatch struct {
	Tree  int
	Start int
	G     [][]byte
	H     [][]byte
	GExp  []int16
	HExp  []int16
	Last  bool
	Class int
}

// MsgHistograms carries a passive party's encrypted histograms for one or
// more nodes of one layer.
type MsgHistograms struct {
	Tree  int
	Layer int
	Nodes []NodeHist
}

// NodeHist is the header of one node's encrypted histogram over the
// sender's features. Only the smaller child of a split is shipped, and its
// header names the split: Parent is the node that was split and Sibling
// the other child, whose histogram Party B derives as parent − this node
// in plaintext. Both are zero on a root.
//
// Packed marks the node layout every session ships (wire id 33): the
// slots of all features — one shifted prefix sum per bin a feature's
// Occupied bitmap names — are cut into balanced chunks (packPlan.chunk)
// of up to t slots under histogram packing and of one slot without it,
// and chunk c travels as its own MsgHistCt after the header. A node
// without it is the retired two-ciphertext frame (wire id 4).
type NodeHist struct {
	Node            int32
	Parent, Sibling int32
	Feats           []FeatHist
	Packed          bool
}

// MsgHistCt carries chunk Index of a node's histogram, one ciphertext, as
// soon as the sender has packed it; it follows the node's header on the
// link. Tree is the header's tree tag.
type MsgHistCt struct {
	Tree  int
	Node  int32
	Index int
	Ct    []byte
}

// FeatHist is one feature's share of a node's slots: bit k of Occupied is
// set when bin k owns a slot of the node's ciphertexts.
type FeatHist struct {
	NumBins  int
	Occupied []byte
	// Retired layouts (wire id 4): the per-feature packing flag and the
	// two-ciphertext packed columns, written by no engine and refused by
	// Party B (ErrLegacyLayout); kept, like MsgGradBatch, for
	// benchmark/probes.go.
	Packed  bool
	PackedG [][]byte
	PackedH [][]byte
	Exp     int16
}

// Node actions in a split decision.
const (
	ActionLeaf   = uint8(iota) // node becomes a leaf
	ActionSplitB               // B owns the split; placement included
	ActionSplitA               // a passive party owns the split
)

// NodeDecision tells passive parties how one node was (tentatively or
// finally) resolved.
type NodeDecision struct {
	Node   int32
	Action uint8
	// LeftID/RightID are the child node IDs B allocated (so all parties
	// agree on the tree arena).
	LeftID, RightID int32
	// Placement is the left/right bitmap over the node's instance list
	// (bit k set = k-th instance goes left). Present for ActionSplitB,
	// and for ActionSplitA when relayed by B to the non-owner parties.
	Placement []byte
	Count     int
	// Owner is the passive party index for ActionSplitA.
	Owner int
	// Feature and Bin identify the split for its owner (party-local
	// feature index). Only the owner receives them; other parties see
	// just the placement.
	Feature int32
	Bin     int32
	// AbortLeft/AbortRight name tentative children invalidated by this
	// corrective decision (optimistic protocol only); 0 means none.
	AbortLeft, AbortRight int32
}

// MsgDecisions carries the resolved (or, under the optimistic protocol,
// tentative) decisions for a set of nodes of one layer.
type MsgDecisions struct {
	Tree      int
	Layer     int
	Tentative bool
	Nodes     []NodeDecision
}

// MsgDirty tells the owner passive party that a tentatively-split node was
// dirty: the owner's split won. The owner answers with MsgPlacement and
// rebuilds the node's children (with the fresh IDs).
type MsgDirty struct {
	Tree  int
	Layer int
	Node  int32
	// OldLeft and OldRight are the aborted tentative children.
	OldLeft, OldRight int32
	// Fresh children IDs for the corrected split.
	LeftID, RightID int32
	Feature         int32
	Bin             int32
}

// MsgPlacement is a passive party's placement bitmap for a node it split.
type MsgPlacement struct {
	Tree  int
	Layer int
	Node  int32
	Bits  []byte
	Count int
}

// MsgTreeDone signals the end of a boosting round.
type MsgTreeDone struct {
	Tree int
}

// MsgShutdown ends the session.
type MsgShutdown struct{}

// MsgAbort ends the session from either side with the reason. A passive
// party sends it when a frame from B is malformed or one of its background
// histogram tasks hits an unrecoverable error (a storage fault, a
// histogram that could not be sent); Party B sends it when a passive
// party's histograms break the sibling-derivation or node-layout contract.
// The receiver fails its session with the carried reason; hostile wire
// input must never panic or hang either process.
type MsgAbort struct {
	Party  int
	Reason string
}

// Transport is the minimal producer/consumer pair the engine needs; both
// mq in-process endpoints and TCP remote endpoints satisfy it.
type Transport interface {
	Send(payload []byte) error
	Receive() ([]byte, error)
}

// Link is the typed bidirectional channel between two parties: a
// Transport whose payloads are wire.Binary frames. It is exported so
// subsystems outside core (internal/serve's online scoring sessions) can
// exchange protocol messages without re-implementing the framing.
type Link struct {
	tr Transport
}

// NewLink wraps a bidirectional transport.
func NewLink(tr Transport) *Link { return &Link{tr: tr} }

// Send encodes and transmits one protocol message.
func (l *Link) Send(m any) error { return l.send(m) }

// SendContext is Send with a deadline: transports that implement
// SendContext(ctx, payload) (the mq shaper-backed producers) honour the
// context mid-transmission; others get a best-effort check before the
// blocking send. An expired context returns its error without touching
// the transport.
func (l *Link) SendContext(ctx context.Context, m any) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	payload, err := wire.Binary.Encode(m)
	if err != nil {
		return fmt.Errorf("core: encoding %T: %w", m, err)
	}
	if cs, ok := l.tr.(interface {
		SendContext(context.Context, []byte) error
	}); ok {
		return cs.SendContext(ctx, payload)
	}
	return l.tr.Send(payload)
}

// Recv blocks for the next protocol message.
func (l *Link) Recv() (any, error) { return l.recv() }

// link is the package-internal name for Link, predating its export.
type link = Link

func (l *link) send(m any) error {
	payload, err := wire.Binary.Encode(m)
	if err != nil {
		return fmt.Errorf("core: encoding %T: %w", m, err)
	}
	// The payload buffer now belongs to the delivery path; the receiving
	// link recycles it after decoding.
	return l.tr.Send(payload)
}

// ErrUndecodable marks a receive that got a frame but could not decode it
// — an unknown or retired message ID, the retired gob tag, a malformed
// body — as opposed to a transport that failed or closed. A peer that
// sends one is broken or from an incompatible build, so a serving loop
// ends with this error instead of treating it as a disconnect.
var ErrUndecodable = errors.New("core: decoding message")

func (l *link) recv() (any, error) {
	payload, err := l.tr.Receive()
	if err != nil {
		return nil, err
	}
	m, err := wire.Binary.Decode(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrUndecodable, err)
	}
	wire.PutBuf(payload)
	return m, nil
}

// packBitmap encodes booleans little-endian into bytes.
func packBitmap(bits []bool) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return out
}

// bitmapGet reads bit i of a packed bitmap.
func bitmapGet(bm []byte, i int) bool {
	return bm[i/8]&(1<<(i%8)) != 0
}
