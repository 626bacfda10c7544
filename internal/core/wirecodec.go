package core

import (
	"fmt"

	"vf2boost/internal/wire"
)

// Binary wire encodings for every protocol message. Each message gets a
// stable numeric ID (never renumber — append new IDs for new messages; the
// table is mirrored in docs/PROTOCOL.md) and explicit AppendTo/DecodeFrom
// implementations over the wire package's primitives. Field order in the
// body encoding is fixed; adding a field means a new message ID or a new
// frame version tag, never an in-place layout change.
//
// A round trip must produce a deep-equal value for every message an engine
// can build, which TestBinaryRoundTrip checks.
const (
	// idSetupV1 (= 1) carried the pre-obfuscation-base MsgSetup layout.
	// Per the append-only rule above, extending the message meant
	// retiring the ID rather than changing the layout in place; 1 stays
	// reserved and must not be reused.
	idSetupV1    uint16 = 1
	idReady      uint16 = 2
	idGradBatch  uint16 = 3
	idHistograms uint16 = 4
	idDecisions  uint16 = 5
	idDirty      uint16 = 6
	idPlacement  uint16 = 7
	idTreeDone   uint16 = 8
	idShutdown   uint16 = 9
	// Ids 10 and 11 carried the one-shot prediction exchange
	// (MsgPredictStart, MsgPredictPlacements: every shard row in one
	// frame). Batch prediction is a scoring session now, so the ids stay
	// reserved, unregistered, and must not be reused.
	idPredictStart      uint16 = 10
	idPredictPlacements uint16 = 11
	idScoreOpen         uint16 = 12
	idScoreOpenAck      uint16 = 13
	idScoreRequest      uint16 = 14
	idScoreResponse     uint16 = 15
	idScoreClose        uint16 = 16
	idScoreCloseAck     uint16 = 17
	idEnvelope          uint16 = 18
	idAck               uint16 = 19
	idHeartbeat         uint16 = 20
	idResume            uint16 = 21
	// idSetupV2 extends the setup body with the fast-obfuscation base
	// (ObfBase, ObfBits) appended after Shift.
	idSetupV2 uint16 = 22
	idAbort   uint16 = 23
	// Ids 24–27 carried the lane-packed ("batched") HE backends: the setup
	// with lane geometry (idSetupV3, and idSetupV4 with the objective), the
	// slot-packed gradient stream (idVecGradBatch) and the histogram with
	// vectorized columns (idHistogramsV2). The backends are gone and so are
	// the registrations, so a peer that still negotiates one fails decoding
	// at its first frame; the ids stay reserved and must not be reused.
	idSetupV3      uint16 = 24
	idVecGradBatch uint16 = 25
	idHistogramsV2 uint16 = 26
	idSetupV4      uint16 = 27
	// idGradBatchV2 extends the gradient-batch body with the output index
	// (Class) appended after Last. Class-0 batches — every batch of a
	// binary session — keep the idGradBatch frame.
	idGradBatchV2 uint16 = 28
	// The folded ⟨g,h⟩ layout (one ciphertext per instance, one cell per
	// histogram bin) replaced the two-ciphertext scalar frames wholesale,
	// so its three frames took fresh IDs: idPairBatch supersedes
	// idGradBatch/idGradBatchV2 (Class always present), idHistogramsV3
	// supersedes idHistograms, and idSetupV5 — the scalar setup, carrying
	// PairBits and the objective but no Shift — superseded idSetupV2. The
	// retired scalar frames stay decodable only to be refused. idSetupV5
	// still carried the fast-obfuscation base (ObfBase, ObfBits) for
	// passive parties that encrypted their own packing shift; B ships that
	// ciphertext now (idSetupV6), so 31 stays reserved, unregistered, and
	// must not be reused.
	idPairBatch    uint16 = 29
	idHistogramsV3 uint16 = 30
	idSetupV5      uint16 = 31
	// idHistogramsV4 was the announcing histogram frame (per-bin
	// ciphertexts plus a split announcement and the empty columns of the
	// retired vectorized layout). Ids 30 and 32 carried the histograms of
	// sessions without packing, which now ship the node layout with one
	// slot per ciphertext, so both stay reserved, unregistered, and must
	// not be reused.
	idHistogramsV4 uint16 = 32
	// idHistogramsV5 is the node layout's header: per node the split
	// announcement, per feature the bin count and the occupancy bitmap.
	// Every histogram of every session uses it, roots included. Its body
	// keeps the ciphertext list of the retired one-frame layout, which must
	// be empty: the chunks follow as idHistCt frames.
	idHistogramsV5 uint16 = 33
	// idHistCt is one chunk ciphertext of a node, sent after the node's
	// header as soon as it is packed.
	idHistCt uint16 = 34
	// idSetupV6 is the setup every session sends: idSetupV5 with the
	// obfuscation base replaced by B's encryption of the packing shift
	// (ShiftCt).
	idSetupV6 uint16 = 35
)

// All ends of a deployment ship the same binary, so a frame carrying a
// retired, unregistered ID (the idSetupV1 layout, the one-shot prediction
// exchange's 10–11, the batched backends' 24–27, the per-bin histograms'
// 30 and 32, the obfuscation-base setup's 31) fails decoding loudly
// instead of being misread.
var _ = []uint16{idSetupV1, idPredictStart, idPredictPlacements, idSetupV3, idVecGradBatch, idHistogramsV2, idSetupV4, idHistogramsV3, idSetupV5, idHistogramsV4}

func init() {
	wire.Register(idSetupV2, "MsgSetupV2", decodeSetupV2)
	wire.Register(idSetupV6, "MsgSetup", decodeMsg[MsgSetup])
	wire.Register(idReady, "MsgReady", decodeMsg[MsgReady])
	wire.Register(idGradBatch, "MsgGradBatch", decodeAs(idGradBatch, (*MsgGradBatch).decodeFrom))
	wire.Register(idGradBatchV2, "MsgGradBatchV2", decodeAs(idGradBatchV2, (*MsgGradBatch).decodeFrom))
	wire.Register(idPairBatch, "MsgPairBatch", decodeMsg[MsgPairBatch])
	wire.Register(idHistograms, "MsgHistogramsV1", decodeAs(idHistograms, (*MsgHistograms).decodeFrom))
	wire.Register(idHistogramsV5, "MsgHistogramsV5", decodeAs(idHistogramsV5, (*MsgHistograms).decodeFrom))
	wire.Register(idHistCt, "MsgHistCt", decodeMsg[MsgHistCt])
	wire.Register(idDecisions, "MsgDecisions", decodeMsg[MsgDecisions])
	wire.Register(idDirty, "MsgDirty", decodeMsg[MsgDirty])
	wire.Register(idPlacement, "MsgPlacement", decodeMsg[MsgPlacement])
	wire.Register(idTreeDone, "MsgTreeDone", decodeMsg[MsgTreeDone])
	wire.Register(idShutdown, "MsgShutdown", decodeMsg[MsgShutdown])
	wire.Register(idScoreOpen, "MsgScoreOpen", decodeMsg[MsgScoreOpen])
	wire.Register(idScoreOpenAck, "MsgScoreOpenAck", decodeMsg[MsgScoreOpenAck])
	wire.Register(idScoreRequest, "MsgScoreRequest", decodeMsg[MsgScoreRequest])
	wire.Register(idScoreResponse, "MsgScoreResponse", decodeMsg[MsgScoreResponse])
	wire.Register(idScoreClose, "MsgScoreClose", decodeMsg[MsgScoreClose])
	wire.Register(idScoreCloseAck, "MsgScoreCloseAck", decodeMsg[MsgScoreCloseAck])
	wire.Register(idEnvelope, "MsgEnvelope", decodeMsg[MsgEnvelope])
	wire.Register(idAck, "MsgAck", decodeMsg[MsgAck])
	wire.Register(idHeartbeat, "MsgHeartbeat", decodeMsg[MsgHeartbeat])
	wire.Register(idResume, "MsgResume", decodeMsg[MsgResume])
	wire.Register(idAbort, "MsgAbort", decodeMsg[MsgAbort])
}

// decodeAs adapts a message whose body layout depends on the frame ID it
// arrived under to the registry's decode signature.
func decodeAs[M any](id uint16, dec func(*M, []byte, uint16) error) func([]byte) (any, error) {
	return func(body []byte) (any, error) {
		var m M
		if err := dec(&m, body, id); err != nil {
			return nil, err
		}
		return m, nil
	}
}

// wireBody is the decode half of a protocol message; every Msg* pointer
// type implements it.
type wireBody interface {
	DecodeFrom(body []byte) error
}

// decodeMsg adapts a message type to the registry's decode signature,
// returning the message by value (protocol code type-switches on values).
func decodeMsg[M any, PM interface {
	*M
	wireBody
}](body []byte) (any, error) {
	var m M
	if err := PM(&m).DecodeFrom(body); err != nil {
		return nil, err
	}
	return m, nil
}

// --- MsgSetup ----------------------------------------------------------

// WireID: every setup an engine sends is idSetupV6.
func (MsgSetup) WireID() uint16 { return idSetupV6 }

func (m MsgSetup) AppendTo(b []byte) []byte {
	b = wire.AppendString(b, m.Scheme)
	b = wire.AppendBytes(b, m.N)
	b = wire.AppendInt(b, m.Bits)
	b = wire.AppendInt(b, m.BaseExp)
	b = wire.AppendInt(b, m.ExpSpread)
	b = wire.AppendInt(b, m.PairBits)
	b = wire.AppendInt(b, m.PackBits)
	b = wire.AppendBytes(b, m.ShiftCt)
	b = wire.AppendString(b, m.Objective)
	return wire.AppendInt(b, m.Outputs)
}

func (m *MsgSetup) DecodeFrom(body []byte) error {
	d := wire.NewDec(body)
	m.Scheme = d.String()
	m.N = d.Bytes()
	m.Bits = d.Int()
	m.BaseExp = d.Int()
	m.ExpSpread = d.Int()
	m.PairBits = d.Int()
	m.PackBits = d.Int()
	m.ShiftCt = d.Bytes()
	m.Objective = d.String()
	m.Outputs = d.Int()
	return d.Finish()
}

// decodeSetupV2 reads the retired idSetupV2 layout so its sender can be
// refused by name: the setup it returns has no PairBits
// (ErrLegacyLayout).
func decodeSetupV2(body []byte) (any, error) {
	var m MsgSetup
	d := wire.NewDec(body)
	m.Scheme = d.String()
	m.N = d.Bytes()
	m.Bits = d.Int()
	m.BaseExp = d.Int()
	m.ExpSpread = d.Int()
	m.PackBits = d.Int()
	d.Float64() // Shift
	d.Bytes()   // ObfBase
	d.Int()     // ObfBits
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// --- MsgReady ----------------------------------------------------------

func (MsgReady) WireID() uint16 { return idReady }

func (m MsgReady) AppendTo(b []byte) []byte {
	b = wire.AppendInt(b, m.Party)
	b = wire.AppendInt(b, m.Features)
	return wire.AppendInt(b, m.Rows)
}

func (m *MsgReady) DecodeFrom(body []byte) error {
	d := wire.NewDec(body)
	m.Party = d.Int()
	m.Features = d.Int()
	m.Rows = d.Int()
	return d.Finish()
}

// --- MsgPairBatch / retired MsgGradBatch -------------------------------

func (MsgPairBatch) WireID() uint16 { return idPairBatch }

func (m MsgPairBatch) AppendTo(b []byte) []byte {
	b = wire.AppendInt(b, m.Tree)
	b = wire.AppendInt(b, m.Start)
	b = wire.AppendByteSlices(b, m.Cts)
	b = wire.AppendInt16s(b, m.Exp)
	b = wire.AppendBool(b, m.Last)
	return wire.AppendInt(b, m.Class)
}

func (m *MsgPairBatch) DecodeFrom(body []byte) error {
	d := wire.NewDec(body)
	m.Tree = d.Int()
	m.Start = d.Int()
	m.Cts = d.ByteSlices()
	m.Exp = d.Int16s()
	m.Last = d.Bool()
	m.Class = d.Int()
	return d.Finish()
}

func (m MsgGradBatch) WireID() uint16 {
	if m.Class != 0 {
		return idGradBatchV2
	}
	return idGradBatch
}

func (m MsgGradBatch) AppendTo(b []byte) []byte {
	b = wire.AppendInt(b, m.Tree)
	b = wire.AppendInt(b, m.Start)
	b = wire.AppendByteSlices(b, m.G)
	b = wire.AppendByteSlices(b, m.H)
	b = wire.AppendInt16s(b, m.GExp)
	b = wire.AppendInt16s(b, m.HExp)
	b = wire.AppendBool(b, m.Last)
	if m.Class != 0 {
		b = wire.AppendInt(b, m.Class)
	}
	return b
}

func (m *MsgGradBatch) decodeFrom(body []byte, id uint16) error {
	d := wire.NewDec(body)
	m.Tree = d.Int()
	m.Start = d.Int()
	m.G = d.ByteSlices()
	m.H = d.ByteSlices()
	m.GExp = d.Int16s()
	m.HExp = d.Int16s()
	m.Last = d.Bool()
	if id == idGradBatchV2 {
		m.Class = d.Int()
	}
	return d.Finish()
}

// --- MsgHistograms -----------------------------------------------------

// WireID picks the frame: every engine ships node headers under
// idHistogramsV5, and a message of other nodes is the retired
// two-ciphertext frame (idHistograms), which only benchmark/probes.go
// builds.
func (m MsgHistograms) WireID() uint16 {
	for _, n := range m.Nodes {
		if n.Packed {
			return idHistogramsV5
		}
	}
	return idHistograms
}

func (m MsgHistograms) AppendTo(b []byte) []byte {
	packed := m.WireID() == idHistogramsV5
	b = wire.AppendInt(b, m.Tree)
	b = wire.AppendInt(b, m.Layer)
	b = wire.AppendUvarint(b, uint64(len(m.Nodes)))
	for _, n := range m.Nodes {
		b = wire.AppendInt32(b, n.Node)
		if packed {
			b = wire.AppendInt32(b, n.Parent)
			b = wire.AppendInt32(b, n.Sibling)
			b = wire.AppendByteSlices(b, nil) // the retired one-frame ciphertexts
		}
		b = wire.AppendUvarint(b, uint64(len(n.Feats)))
		for _, f := range n.Feats {
			b = wire.AppendInt(b, f.NumBins)
			if packed {
				b = wire.AppendBytes(b, f.Occupied)
				continue
			}
			// The pre-fold layout opens with the per-bin G/H ciphertext and
			// exponent columns, which no message carries any more.
			b = wire.AppendByteSlices(b, nil)
			b = wire.AppendByteSlices(b, nil)
			b = wire.AppendInt16s(b, nil)
			b = wire.AppendInt16s(b, nil)
			b = wire.AppendBool(b, f.Packed)
			b = wire.AppendByteSlices(b, f.PackedG)
			b = wire.AppendByteSlices(b, f.PackedH)
			b = wire.AppendInt16(b, f.Exp)
		}
	}
	return b
}

// decodeFrom reads a header (idHistogramsV5) or the retired
// two-ciphertext frame (idHistograms). A header that carries ciphertexts
// is the retired one-frame node layout, refused by name (ErrLegacyLayout).
func (m *MsgHistograms) decodeFrom(body []byte, id uint16) error {
	packed := id == idHistogramsV5
	d := wire.NewDec(body)
	m.Tree = d.Int()
	m.Layer = d.Int()
	oneFrame := -1
	m.Nodes = decodeSeq(d, func(d *wire.Dec) NodeHist {
		n := NodeHist{Node: d.Int32()}
		if packed {
			n.Parent, n.Sibling, n.Packed = d.Int32(), d.Int32(), true
			if len(d.ByteSlices()) > 0 && oneFrame < 0 {
				oneFrame = int(n.Node)
			}
		}
		n.Feats = decodeSeq(d, func(d *wire.Dec) FeatHist {
			f := FeatHist{NumBins: d.Int()}
			if packed {
				f.Occupied = d.Bytes()
				return f
			}
			d.ByteSlices()
			d.ByteSlices()
			d.Int16s()
			d.Int16s()
			f.Packed = d.Bool()
			f.PackedG = d.ByteSlices()
			f.PackedH = d.ByteSlices()
			f.Exp = d.Int16()
			return f
		})
		return n
	})
	if err := d.Finish(); err != nil {
		return err
	}
	if oneFrame >= 0 {
		return fmt.Errorf("%w: node %d ships its ciphertexts in its header (one-frame node layout)", ErrLegacyLayout, oneFrame)
	}
	return nil
}

// --- MsgHistCt ---------------------------------------------------------

func (MsgHistCt) WireID() uint16 { return idHistCt }

func (m MsgHistCt) AppendTo(b []byte) []byte {
	b = wire.AppendInt(b, m.Tree)
	b = wire.AppendInt32(b, m.Node)
	b = wire.AppendInt(b, m.Index)
	return wire.AppendBytes(b, m.Ct)
}

func (m *MsgHistCt) DecodeFrom(body []byte) error {
	d := wire.NewDec(body)
	m.Tree = d.Int()
	m.Node = d.Int32()
	m.Index = d.Int()
	m.Ct = d.Bytes()
	return d.Finish()
}

// decodeSeq reads a count-prefixed sequence of composite elements, with
// the count bounded by the remaining frame bytes (each element costs at
// least one byte). Zero count decodes as nil.
func decodeSeq[E any](d *wire.Dec, elem func(*wire.Dec) E) []E {
	count := d.Uvarint()
	if d.Err() != nil || count == 0 {
		return nil
	}
	if count > uint64(d.Remaining()) {
		d.Fail("sequence of %d elements, only %d bytes remain", count, d.Remaining())
		return nil
	}
	out := make([]E, count)
	for i := range out {
		out[i] = elem(d)
		if d.Err() != nil {
			return nil
		}
	}
	return out
}

// --- MsgDecisions ------------------------------------------------------

func (MsgDecisions) WireID() uint16 { return idDecisions }

func (m MsgDecisions) AppendTo(b []byte) []byte {
	b = wire.AppendInt(b, m.Tree)
	b = wire.AppendInt(b, m.Layer)
	b = wire.AppendBool(b, m.Tentative)
	b = wire.AppendUvarint(b, uint64(len(m.Nodes)))
	for _, n := range m.Nodes {
		b = wire.AppendInt32(b, n.Node)
		b = wire.AppendByte(b, n.Action)
		b = wire.AppendInt32(b, n.LeftID)
		b = wire.AppendInt32(b, n.RightID)
		b = wire.AppendBytes(b, n.Placement)
		b = wire.AppendInt(b, n.Count)
		b = wire.AppendInt(b, n.Owner)
		b = wire.AppendInt32(b, n.Feature)
		b = wire.AppendInt32(b, n.Bin)
		b = wire.AppendInt32(b, n.AbortLeft)
		b = wire.AppendInt32(b, n.AbortRight)
	}
	return b
}

func (m *MsgDecisions) DecodeFrom(body []byte) error {
	d := wire.NewDec(body)
	m.Tree = d.Int()
	m.Layer = d.Int()
	m.Tentative = d.Bool()
	m.Nodes = decodeSeq(d, func(d *wire.Dec) NodeDecision {
		return NodeDecision{
			Node:       d.Int32(),
			Action:     d.Byte(),
			LeftID:     d.Int32(),
			RightID:    d.Int32(),
			Placement:  d.Bytes(),
			Count:      d.Int(),
			Owner:      d.Int(),
			Feature:    d.Int32(),
			Bin:        d.Int32(),
			AbortLeft:  d.Int32(),
			AbortRight: d.Int32(),
		}
	})
	return d.Finish()
}

// --- MsgDirty ----------------------------------------------------------

func (MsgDirty) WireID() uint16 { return idDirty }

func (m MsgDirty) AppendTo(b []byte) []byte {
	b = wire.AppendInt(b, m.Tree)
	b = wire.AppendInt(b, m.Layer)
	b = wire.AppendInt32(b, m.Node)
	b = wire.AppendInt32(b, m.OldLeft)
	b = wire.AppendInt32(b, m.OldRight)
	b = wire.AppendInt32(b, m.LeftID)
	b = wire.AppendInt32(b, m.RightID)
	b = wire.AppendInt32(b, m.Feature)
	return wire.AppendInt32(b, m.Bin)
}

func (m *MsgDirty) DecodeFrom(body []byte) error {
	d := wire.NewDec(body)
	m.Tree = d.Int()
	m.Layer = d.Int()
	m.Node = d.Int32()
	m.OldLeft = d.Int32()
	m.OldRight = d.Int32()
	m.LeftID = d.Int32()
	m.RightID = d.Int32()
	m.Feature = d.Int32()
	m.Bin = d.Int32()
	return d.Finish()
}

// --- MsgPlacement ------------------------------------------------------

func (MsgPlacement) WireID() uint16 { return idPlacement }

func (m MsgPlacement) AppendTo(b []byte) []byte {
	b = wire.AppendInt(b, m.Tree)
	b = wire.AppendInt(b, m.Layer)
	b = wire.AppendInt32(b, m.Node)
	b = wire.AppendBytes(b, m.Bits)
	return wire.AppendInt(b, m.Count)
}

func (m *MsgPlacement) DecodeFrom(body []byte) error {
	d := wire.NewDec(body)
	m.Tree = d.Int()
	m.Layer = d.Int()
	m.Node = d.Int32()
	m.Bits = d.Bytes()
	m.Count = d.Int()
	return d.Finish()
}

// --- MsgTreeDone / MsgShutdown ----------------------------------------

func (MsgTreeDone) WireID() uint16 { return idTreeDone }

func (m MsgTreeDone) AppendTo(b []byte) []byte { return wire.AppendInt(b, m.Tree) }

func (m *MsgTreeDone) DecodeFrom(body []byte) error {
	d := wire.NewDec(body)
	m.Tree = d.Int()
	return d.Finish()
}

func (MsgShutdown) WireID() uint16 { return idShutdown }

func (m MsgShutdown) AppendTo(b []byte) []byte { return b }

func (m *MsgShutdown) DecodeFrom(body []byte) error {
	return wire.NewDec(body).Finish()
}

// --- MsgAbort ----------------------------------------------------------

func (MsgAbort) WireID() uint16 { return idAbort }

func (m MsgAbort) AppendTo(b []byte) []byte {
	b = wire.AppendInt(b, m.Party)
	return wire.AppendString(b, m.Reason)
}

func (m *MsgAbort) DecodeFrom(body []byte) error {
	d := wire.NewDec(body)
	m.Party = d.Int()
	m.Reason = d.String()
	return d.Finish()
}

// --- Score session family ---------------------------------------------

func (MsgScoreOpen) WireID() uint16 { return idScoreOpen }

func (m MsgScoreOpen) AppendTo(b []byte) []byte {
	b = wire.AppendInt(b, m.Proto)
	return wire.AppendString(b, m.Session)
}

func (m *MsgScoreOpen) DecodeFrom(body []byte) error {
	d := wire.NewDec(body)
	m.Proto = d.Int()
	m.Session = d.String()
	return d.Finish()
}

func (MsgScoreOpenAck) WireID() uint16 { return idScoreOpenAck }

func (m MsgScoreOpenAck) AppendTo(b []byte) []byte {
	b = wire.AppendInt(b, m.Proto)
	b = wire.AppendInt(b, m.Party)
	b = wire.AppendInt(b, m.Rows)
	b = wire.AppendUint64s(b, m.Versions)
	return wire.AppendString(b, m.Error)
}

func (m *MsgScoreOpenAck) DecodeFrom(body []byte) error {
	d := wire.NewDec(body)
	m.Proto = d.Int()
	m.Party = d.Int()
	m.Rows = d.Int()
	m.Versions = d.Uint64s()
	m.Error = d.String()
	return d.Finish()
}

func (MsgScoreRequest) WireID() uint16 { return idScoreRequest }

func (m MsgScoreRequest) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, m.Round)
	b = wire.AppendUvarint(b, m.Version)
	return wire.AppendInt32s(b, m.Rows)
}

func (m *MsgScoreRequest) DecodeFrom(body []byte) error {
	d := wire.NewDec(body)
	m.Round = d.Uvarint()
	m.Version = d.Uvarint()
	m.Rows = d.Int32s()
	return d.Finish()
}

func appendNodeBits(b []byte, nodes []PredictNodeBits) []byte {
	b = wire.AppendUvarint(b, uint64(len(nodes)))
	for _, n := range nodes {
		b = wire.AppendInt(b, n.Tree)
		b = wire.AppendInt32(b, n.Node)
		b = wire.AppendBytes(b, n.Bits)
	}
	return b
}

func decodeNodeBits(d *wire.Dec) []PredictNodeBits {
	return decodeSeq(d, func(d *wire.Dec) PredictNodeBits {
		return PredictNodeBits{Tree: d.Int(), Node: d.Int32(), Bits: d.Bytes()}
	})
}

func (MsgScoreResponse) WireID() uint16 { return idScoreResponse }

func (m MsgScoreResponse) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, m.Round)
	b = wire.AppendUvarint(b, m.Version)
	b = wire.AppendInt(b, m.Party)
	b = appendNodeBits(b, m.Nodes)
	return wire.AppendString(b, m.Error)
}

func (m *MsgScoreResponse) DecodeFrom(body []byte) error {
	d := wire.NewDec(body)
	m.Round = d.Uvarint()
	m.Version = d.Uvarint()
	m.Party = d.Int()
	m.Nodes = decodeNodeBits(d)
	m.Error = d.String()
	return d.Finish()
}

func (MsgScoreClose) WireID() uint16 { return idScoreClose }

func (m MsgScoreClose) AppendTo(b []byte) []byte { return wire.AppendString(b, m.Reason) }

func (m *MsgScoreClose) DecodeFrom(body []byte) error {
	d := wire.NewDec(body)
	m.Reason = d.String()
	return d.Finish()
}

func (MsgScoreCloseAck) WireID() uint16 { return idScoreCloseAck }

func (m MsgScoreCloseAck) AppendTo(b []byte) []byte { return b }

func (m *MsgScoreCloseAck) DecodeFrom(body []byte) error {
	return wire.NewDec(body).Finish()
}

// --- Resilient link family (envelope / ack / heartbeat) ----------------

func (MsgEnvelope) WireID() uint16 { return idEnvelope }

func (m MsgEnvelope) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, m.Seq)
	return wire.AppendBytes(b, m.Frame)
}

func (m *MsgEnvelope) DecodeFrom(body []byte) error {
	d := wire.NewDec(body)
	m.Seq = d.Uvarint()
	m.Frame = d.Bytes()
	return d.Finish()
}

func (MsgAck) WireID() uint16 { return idAck }

func (m MsgAck) AppendTo(b []byte) []byte { return wire.AppendUvarint(b, m.Cum) }

func (m *MsgAck) DecodeFrom(body []byte) error {
	d := wire.NewDec(body)
	m.Cum = d.Uvarint()
	return d.Finish()
}

func (MsgHeartbeat) WireID() uint16 { return idHeartbeat }

func (m MsgHeartbeat) AppendTo(b []byte) []byte { return wire.AppendUvarint(b, m.Cum) }

func (m *MsgHeartbeat) DecodeFrom(body []byte) error {
	d := wire.NewDec(body)
	m.Cum = d.Uvarint()
	return d.Finish()
}

// --- MsgResume ---------------------------------------------------------

func (MsgResume) WireID() uint16 { return idResume }

func (m MsgResume) AppendTo(b []byte) []byte {
	b = wire.AppendInt(b, m.Party)
	return wire.AppendInt(b, m.Trees)
}

func (m *MsgResume) DecodeFrom(body []byte) error {
	d := wire.NewDec(body)
	m.Party = d.Int()
	m.Trees = d.Int()
	return d.Finish()
}
