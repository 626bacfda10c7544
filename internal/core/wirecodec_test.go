package core

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"testing"

	"vf2boost/internal/wire"
)

// sampleMessages covers every protocol message type with populated fields
// (including the awkward shapes: empty bins, nodes without a slot, one
// slot per ciphertext, error strings). Slices that would be empty are nil,
// matching what the codec produces on decode.
func sampleMessages() []any {
	return []any{
		MsgSetup{Scheme: "paillier", N: []byte{0xDE, 0xAD, 0xBE, 0xEF}, Bits: 512, BaseExp: 8, ExpSpread: 4, PairBits: 57, PackBits: 114, ShiftCt: []byte{0xCA, 0xFE, 0x01}},
		MsgSetup{Scheme: "mock", Bits: 256, PairBits: 60, ShiftCt: []byte{0x80}, Objective: "multiclass:3", Outputs: 3},
		MsgSetup{Scheme: "paillier", N: []byte{0x01, 0x02}, Bits: 2048, BaseExp: 8, ExpSpread: 1, PairBits: 120},
		MsgSetup{Scheme: "mock", Bits: 1024, BaseExp: 8, ExpSpread: 1, PairBits: 60, PackBits: 120, Objective: "ranking:10", Outputs: 1},
		MsgPairBatch{Tree: 0, Start: 450, Cts: [][]byte{{1, 2, 3}, {4, 5}, nil}, Exp: []int16{8, 9, 10}},
		MsgReady{Party: 2, Features: 17, Rows: 100000},
		MsgPairBatch{Tree: 3, Start: 2048, Cts: [][]byte{{1, 2}, {3, 4}}, Exp: []int16{8, 11}, Last: true},
		MsgPairBatch{Tree: 6, Start: 0, Cts: [][]byte{{9, 9}, nil, {8, 8}}, Exp: []int16{0, 0, 0}, Class: 2},
		// Headers of the node layout (id 33): two nodes, the second without
		// a slot.
		MsgHistograms{Tree: 1, Layer: 2, Nodes: []NodeHist{
			{Node: 5, Packed: true, Feats: []FeatHist{
				{NumBins: 4, Occupied: []byte{0x0D}},
				{NumBins: 6, Occupied: []byte{0}},
			}},
			{Node: 6, Packed: true, Feats: []FeatHist{{NumBins: 2, Occupied: []byte{0}}}},
		}},
		// A node's chunk ciphertexts follow its header, one frame each.
		MsgHistCt{Tree: 1, Node: 5, Index: 2, Ct: []byte{3, 3}},
		MsgHistCt{Tree: 4, Node: 3},
		// The retired two-ciphertext frames (ids 3, 28, 4) still round-trip.
		MsgGradBatch{Tree: 3, Start: 2048, G: [][]byte{{1, 2}, {3, 4}}, H: [][]byte{{5, 6}, {7, 8}}, GExp: []int16{-8, -7}, HExp: []int16{-8, -8}, Last: true},
		MsgGradBatch{Tree: 6, Start: 0, G: [][]byte{{9, 9}}, H: [][]byte{nil}, GExp: []int16{0}, HExp: []int16{0}, Class: 2},
		MsgHistograms{Tree: 1, Layer: 2, Nodes: []NodeHist{{Node: 5, Feats: []FeatHist{
			{NumBins: 6, Packed: true, PackedG: [][]byte{{1, 2, 3, 4}, {5, 6, 7, 8}}, PackedH: [][]byte{{9, 9, 9, 9}, {8, 8, 8, 8}}, Exp: -12},
		}}}},
		MsgHistograms{Tree: 9, Layer: 0},
		MsgHistograms{Tree: 4, Layer: 1, Nodes: []NodeHist{{Node: 3, Packed: true, Feats: []FeatHist{
			{NumBins: 5, Occupied: []byte{0x13}},
			{NumBins: 2, Occupied: []byte{0}},
		}}}},
		// The shipped child names the sibling Party B derives.
		MsgHistograms{Tree: 1, Layer: 2, Nodes: []NodeHist{{Node: 5, Parent: 2, Sibling: 4, Packed: true, Feats: []FeatHist{
			{NumBins: 3, Occupied: []byte{0x05}},
			{NumBins: 6, Occupied: []byte{0}},
		}}}},
		MsgHistograms{Tree: 4, Layer: 1, Nodes: []NodeHist{{Node: 3, Parent: 1, Sibling: 2, Packed: true, Feats: []FeatHist{
			{NumBins: 5, Occupied: []byte{0x11}},
		}}}},
		// Packed: a root, and a child announcing its sibling.
		MsgHistograms{Tree: 2, Layer: 0, Nodes: []NodeHist{{Node: 1, Packed: true, Feats: []FeatHist{
			{NumBins: 9, Occupied: []byte{0xFF, 0x01}}, {NumBins: 3, Occupied: []byte{0x05}}, {NumBins: 2, Occupied: []byte{0}},
		}}}},
		MsgHistograms{Tree: 2, Layer: 2, Nodes: []NodeHist{{Node: 6, Parent: 3, Sibling: 7, Packed: true, Feats: []FeatHist{
			{NumBins: 4, Occupied: []byte{0x0A}},
		}}}},
		MsgDecisions{Tree: 2, Layer: 1, Tentative: true, Nodes: []NodeDecision{
			{Node: 1, Action: ActionSplitB, LeftID: 2, RightID: 3, Placement: []byte{0b1010}, Count: 4},
			{Node: 4, Action: ActionSplitA, LeftID: 5, RightID: 6, Owner: 1, Feature: 7, Bin: 3, AbortLeft: 8, AbortRight: 9},
			{Node: 10, Action: ActionLeaf},
		}},
		MsgDirty{Tree: 1, Layer: 2, Node: 3, OldLeft: 4, OldRight: 5, LeftID: 6, RightID: 7, Feature: 8, Bin: 9},
		MsgPlacement{Tree: 1, Layer: 2, Node: 3, Bits: []byte{0xFF, 0x01}, Count: 9},
		MsgTreeDone{Tree: 19},
		MsgShutdown{},
		MsgScoreOpen{Proto: ScoreProtoVersion, Session: "sess-42"},
		MsgScoreOpenAck{Proto: ScoreProtoVersion, Party: 1, Rows: 1000, Versions: []uint64{1, 2, 7}},
		MsgScoreOpenAck{Proto: 9, Error: "protocol version 9 not supported"},
		MsgScoreRequest{Round: 77, Version: 3, Rows: []int32{5, 1, 900}},
		MsgScoreResponse{Round: 77, Version: 3, Party: 1, Nodes: []PredictNodeBits{{Tree: 2, Node: 9, Bits: []byte{0x07}}}},
		MsgScoreResponse{Round: 78, Version: 3, Party: 0, Error: "model version 3 not published"},
		MsgScoreClose{Reason: "server shutdown"},
		MsgScoreCloseAck{},
		MsgResume{Party: 1, Trees: 42},
		MsgAbort{Party: 2, Reason: "core: subtracting bin 7: ciphertext not invertible"},
		MsgEnvelope{Seq: 9000000000, Frame: []byte{0x01, 0x02, 0x03}},
		MsgAck{Cum: 8999999999},
		MsgHeartbeat{Cum: 17},
	}
}

// TestBinaryRoundTrip: every protocol message encodes and decodes to a
// deep-equal value, and every registered ID is exercised — by a sample, or
// for the decode-only retired setup (22) by a hand-built frame.
func TestBinaryRoundTrip(t *testing.T) {
	covered := map[uint16]bool{}
	for _, m := range sampleMessages() {
		frame, err := wire.Binary.Encode(m)
		if err != nil {
			t.Fatalf("%T: encode: %v", m, err)
		}
		got, err := wire.Binary.Decode(frame)
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%T: round trip\n got %#v\nwant %#v", m, got, m)
		}
		covered[m.(wire.Message).WireID()] = true
	}
	got, err := wire.Binary.Decode(legacySetupFrame())
	if err != nil {
		t.Fatalf("retired setup: %v", err)
	}
	if want := (MsgSetup{Scheme: SchemeMock, Bits: 512, BaseExp: 8, ExpSpread: 4, PackBits: 64}); !reflect.DeepEqual(got, want) {
		t.Errorf("retired setup decoded to %#v, want %#v", got, want)
	}
	covered[idSetupV2] = true
	for id, name := range wire.MessageIDs() {
		if !covered[id] {
			t.Errorf("wire ID %d (%s) has no round-trip sample", id, name)
		}
	}
}

// TestEveryMessageTypeHasWireID keeps the registry complete: a new Msg*
// added to sampleMessages without a wirecodec.go entry fails here, and the
// registry cannot silently drift from the documented table.
func TestEveryMessageTypeHasWireID(t *testing.T) {
	ids := wire.MessageIDs()
	seen := map[uint16]bool{}
	for _, m := range sampleMessages() {
		wm, ok := m.(wire.Message)
		if !ok {
			t.Errorf("%T does not implement wire.Message", m)
			continue
		}
		id := wm.WireID()
		if _, registered := ids[id]; !registered {
			t.Errorf("%T has wire ID %d but no registered decoder", m, id)
		}
		seen[id] = true
	}
	// Every registered ID except the decode-only retired setup (22).
	if want := len(ids) - 1; len(seen) != want {
		t.Errorf("samples cover %d message IDs, protocol encodes %d", len(seen), want)
	}
}

// TestScalarFramesByteIdentical pins the bytes of the frames a scalar
// session sends — the pair batch (29) to what the encoder produced while
// the lane-packed backends still shared its layout; the node header (33),
// whose ciphertext list is now always empty, and its ciphertext frame
// (34) to the streamed node layout; and the setup (35) to the layout that
// carries B's shift ciphertext.
func TestScalarFramesByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		m    any
		want string
	}{
		{MsgSetup{Scheme: "paillier", N: []byte{0xDE, 0xAD}, Bits: 512, BaseExp: 8, ExpSpread: 4, PairBits: 57, PackBits: 114, ShiftCt: []byte{0xCA, 0xFE}, Objective: "multiclass:3", Outputs: 3},
			"01002300000024087061696c6c69657202dead8008100872e40102cafe0c6d756c7469636c6173733a3306"},
		{MsgPairBatch{Tree: 3, Start: 2048, Cts: [][]byte{{1, 2}, {3, 4}}, Exp: []int16{8, 11}, Last: true, Class: 1},
			"01001d0000000f068020020102010203040210160102"},
		{MsgHistograms{Tree: 2, Layer: 2, Nodes: []NodeHist{{Node: 6, Parent: 3, Sibling: 7, Packed: true, Feats: []FeatHist{{NumBins: 4, Occupied: []byte{0x0A}}}}}},
			"0100210000000b0404010c060e000108010a"},
		{MsgHistCt{Tree: 2, Node: 6, Index: 1, Ct: []byte{9, 8}},
			"01002200000006040c02020908"},
	} {
		b, err := wire.Binary.Encode(tc.m)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b); got != tc.want {
			t.Errorf("%T frame changed:\n got %s\nwant %s", tc.m, got, tc.want)
		}
	}
}

// retiredHistogramFrames are the per-bin histogram frames sessions without
// packing sent before they shipped the node layout at one slot per
// ciphertext, as the encoder wrote them: folded bins (id 30), and the
// announcing frame with its retired vectorized columns written empty
// (id 32).
func retiredHistogramFrames() [][]byte {
	var frames [][]byte
	for _, h := range []string{
		"01001e000000130204010a010603020205010103030310101600",
		"010020000000260204010a04080206030202050101030303101016000000000000020101000110000000000000",
	} {
		f, err := hex.DecodeString(h)
		if err != nil {
			panic(err)
		}
		frames = append(frames, f)
	}
	return frames
}

// retiredPredictFrames are the retired one-shot prediction exchange's
// frames as an older peer wrote them: MsgPredictStart{Rows: 512} (id 10),
// and MsgPredictPlacements (id 11) carrying bitmaps and carrying an error.
func retiredPredictFrames() [][]byte {
	placements := func(party int, nodes []PredictNodeBits, errMsg string) []byte {
		b := wire.AppendInt(nil, party)
		b = appendNodeBits(b, nodes)
		b = wire.AppendBool(b, true)
		return wire.AppendString(b, errMsg)
	}
	return [][]byte{
		rawFrame(idPredictStart, wire.AppendInt(nil, 512)),
		rawFrame(idPredictPlacements, placements(1, []PredictNodeBits{{Tree: 0, Node: 3, Bits: []byte{0x0F}}, {Tree: 1, Node: 7, Bits: []byte{0xF0, 0x01}}}, "")),
		rawFrame(idPredictPlacements, placements(0, nil, "shard misaligned")),
	}
}

func TestLinkRejectsMalformedFrames(t *testing.T) {
	tr := chanTransport{ch: make(chan []byte, 4)}
	l := NewLink(tr)
	for _, tc := range []struct {
		frame  []byte
		reason string
	}{
		{[]byte{}, "shorter than"},
		{[]byte{0x55, 0, 2, 0, 0, 0, 0}, "unsupported binary frame version"},
		{[]byte{wire.TagBinaryV1, 0, 1}, "shorter than"},
		{[]byte{wire.TagGob, 0xFF, 0xFF}, "retired gob codec"},
		{[]byte{wire.TagBinaryV1, 0xFF, 0xFE, 0, 0, 0, 0}, "unknown message ID"},
		{retiredPredictFrames()[0], "unknown message ID 10"},
		{retiredPredictFrames()[1], "unknown message ID 11"},
		{retiredHistogramFrames()[0], "unknown message ID 30"},
		{retiredHistogramFrames()[1], "unknown message ID 32"},
	} {
		tr.ch <- tc.frame
		_, err := l.Recv()
		if !errors.Is(err, ErrUndecodable) || !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("frame % x: err %v, want ErrUndecodable naming %q", tc.frame, err, tc.reason)
		}
	}
}

// TestLinkGobFallbackNegotiation: there is no fallback left to negotiate.
// A peer still pinned to the retired gob codec opens a session; the
// responder refuses the frame by name with ErrUndecodable, does not adopt
// the peer's tag, answers in binary, and decodes the peer's next frame
// once it speaks binary.
func TestLinkGobFallbackNegotiation(t *testing.T) {
	aToB := chanTransport{ch: make(chan []byte, 4)}
	bToA := chanTransport{ch: make(chan []byte, 4)}
	responder := NewLink(pairSwap{out: bToA, in: aToB})

	aToB.ch <- retagged(wire.TagGob, MsgScoreOpen{Proto: 1, Session: "gob-pinned"})
	if _, err := responder.Recv(); !errors.Is(err, ErrUndecodable) || !strings.Contains(err.Error(), "retired gob codec") {
		t.Fatalf("gob-pinned open: err %v, want ErrUndecodable naming the retired gob codec", err)
	}
	if err := responder.Send(MsgScoreOpenAck{Proto: 1, Party: 0}); err != nil {
		t.Fatal(err)
	}
	if raw := <-bToA.ch; raw[0] != wire.TagBinaryV1 {
		t.Fatalf("responder answered with tag 0x%02x, want binary", raw[0])
	}

	initiator := NewLink(pairSwap{out: aToB, in: bToA})
	if err := initiator.Send(MsgScoreOpen{Proto: 1, Session: "binary"}); err != nil {
		t.Fatal(err)
	}
	msg, err := responder.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if open, ok := msg.(MsgScoreOpen); !ok || open.Session != "binary" {
		t.Fatalf("got %#v after the refusal, want the binary open", msg)
	}
}

// pairSwap crosses two chanTransports into one bidirectional Transport.
type pairSwap struct {
	out chanTransport
	in  chanTransport
}

func (p pairSwap) Send(b []byte) error      { return p.out.Send(b) }
func (p pairSwap) Receive() ([]byte, error) { return p.in.Receive() }

// FuzzWireDecode proves malformed frames return errors instead of
// panicking, and that whatever decodes successfully re-encodes stably.
// Every sample is seeded twice: as its binary frame, and retagged 0x00 —
// the retired gob codec's tag, which must be refused whatever follows it.
// The retired one-shot prediction frames (ids 10 and 11) and per-bin
// histogram frames (ids 30 and 32) are seeded the same way, and a frame
// under any of those ids must never decode.
func FuzzWireDecode(f *testing.F) {
	for _, m := range sampleMessages() {
		p, err := wire.Binary.Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), p...))
		f.Add(retagged(wire.TagGob, m))
	}
	for _, p := range append(retiredPredictFrames(), retiredHistogramFrames()...) {
		f.Add(p)
		f.Add(append([]byte{wire.TagGob}, p[1:]...))
	}
	f.Add([]byte{})
	f.Add([]byte{wire.TagBinaryV1, 0, 4, 0, 0, 0, 0})
	f.Add([]byte{wire.TagGob, 1, 2, 3})
	f.Add(bytes.Repeat([]byte{0x80}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := wire.Binary.Decode(data) // must not panic, whatever the input
		if len(data) > 0 && data[0] == wire.TagGob && err == nil {
			t.Fatalf("a frame under the retired gob tag decoded to %T", m)
		}
		if len(data) >= 3 && data[1] == 0 && err == nil {
			switch uint16(data[2]) {
			case idPredictStart, idPredictPlacements, idHistogramsV3, idHistogramsV4:
				t.Fatalf("a frame under retired id %d decoded to %T", data[2], m)
			}
		}
		if err != nil {
			return
		}
		// Successful decodes must round-trip deterministically.
		p2, err := wire.Binary.Encode(m)
		if err != nil {
			t.Fatalf("re-encoding decoded %T: %v", m, err)
		}
		m2, err := wire.Binary.Decode(p2)
		if err != nil {
			t.Fatalf("re-decoding %T: %v", m, err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("unstable round trip for %T:\n first %#v\nsecond %#v", m, m, m2)
		}
	})
}
