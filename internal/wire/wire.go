// Package wire implements the cross-party message codec: a versioned,
// length-prefixed binary frame format with stable numeric message IDs and
// hand-written per-message encoders. Histogram and gradient traffic
// dominates a federated training run (the paper makes ciphertext transfer
// a first-order cost), so every message appends straight into a pooled
// buffer: no reflection, no per-message type metadata.
//
// Frame layout:
//
//	0x01 | uint16 message ID (BE) | uint32 body length (BE) | body
//
// The leading tag byte is the format version. Tag 0x00 belonged to the
// retired reflective gob codec and is reserved: a frame carrying it is
// refused, never decoded. Tags, like message IDs, are never reused.
//
// Message bodies are encoded by the messages themselves (AppendTo /
// DecodeFrom); this package owns the frame, the message registry, the
// primitive encoders (primitives.go), and the buffer pool (pool.go).
package wire

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Frame tag bytes. TagBinaryV1 doubles as the binary format version:
// an incompatible revision gets a new tag, and a receiver that sees an
// unknown tag fails loudly instead of guessing. TagGob is the retired gob
// codec's tag, reserved so that a peer still speaking it is refused by
// name.
const (
	TagGob      byte = 0x00
	TagBinaryV1 byte = 0x01
)

// headerSize is the binary frame header: tag byte, message ID, body length.
const headerSize = 1 + 2 + 4

// MaxBody bounds a binary frame body, mirroring the TCP gateway's frame
// limit so a corrupt length field fails fast instead of allocating.
const MaxBody = 64 << 20

// Message is implemented by every protocol message that the binary codec
// can carry. WireID returns the message's stable numeric ID (never
// renumbered; new messages append new IDs) and AppendTo appends the body
// encoding to b, returning the extended slice.
type Message interface {
	WireID() uint16
	AppendTo(b []byte) []byte
}

// entry is one registered message type.
type entry struct {
	name   string
	decode func(body []byte) (any, error)
}

// registry maps message IDs to decoders. Populated from init functions
// (package core registers its messages), read-only afterwards.
var registry = map[uint16]entry{}

// Register installs the decoder for one message ID. decode receives the
// frame body and returns the message value (not a pointer: protocol code
// type-switches on values). Duplicate registration is a programming error.
func Register(id uint16, name string, decode func(body []byte) (any, error)) {
	if prev, dup := registry[id]; dup {
		panic(fmt.Sprintf("wire: message ID %d registered twice (%s, %s)", id, prev.name, name))
	}
	registry[id] = entry{name: name, decode: decode}
}

// MessageIDs returns the registered IDs in ascending order with their
// names — the protocol documentation's message-ID table, kept honest by
// tests.
func MessageIDs() map[uint16]string {
	out := make(map[uint16]string, len(registry))
	for id, e := range registry {
		out[id] = e.name
	}
	return out
}

// MessageNames lists "id name" lines in ID order (for docs and debugging).
func MessageNames() []string {
	ids := make([]int, 0, len(registry))
	for id := range registry {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		out = append(out, fmt.Sprintf("%d %s", id, registry[uint16(id)].name))
	}
	return out
}

// Binary is the codec every link speaks: explicit per-message encoders
// into pooled buffers. Encode may return a buffer from this package's
// pool; the receiving side gives it back via PutBuf after Decode (Decode
// never aliases the payload).
var Binary binaryCodec

type binaryCodec struct{}

func (binaryCodec) Encode(m any) ([]byte, error) {
	msg, ok := m.(Message)
	if !ok {
		return nil, fmt.Errorf("wire: %T does not implement wire.Message", m)
	}
	b := GetBuf()
	b = append(b, TagBinaryV1)
	b = binary.BigEndian.AppendUint16(b, msg.WireID())
	b = append(b, 0, 0, 0, 0) // body length backfilled below
	b = msg.AppendTo(b)
	body := len(b) - headerSize
	if body > MaxBody {
		PutBuf(b)
		return nil, fmt.Errorf("wire: %T body of %d bytes exceeds %d-byte frame limit", m, body, MaxBody)
	}
	binary.BigEndian.PutUint32(b[3:headerSize], uint32(body))
	return b, nil
}

func (binaryCodec) Decode(payload []byte) (any, error) {
	if len(payload) > 0 && payload[0] == TagGob {
		return nil, fmt.Errorf("wire: frame tag 0x%02x belongs to the retired gob codec; only binary frames are decoded", TagGob)
	}
	if len(payload) < headerSize {
		return nil, fmt.Errorf("wire: binary frame of %d bytes shorter than %d-byte header", len(payload), headerSize)
	}
	if payload[0] != TagBinaryV1 {
		return nil, fmt.Errorf("wire: unsupported binary frame version 0x%02x", payload[0])
	}
	id := binary.BigEndian.Uint16(payload[1:3])
	n := binary.BigEndian.Uint32(payload[3:headerSize])
	body := payload[headerSize:]
	if uint64(n) != uint64(len(body)) {
		return nil, fmt.Errorf("wire: frame declares %d body bytes, carries %d", n, len(body))
	}
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("wire: unknown message ID %d", id)
	}
	m, err := e.decode(body)
	if err != nil {
		return nil, fmt.Errorf("wire: decoding %s: %w", e.name, err)
	}
	return m, nil
}
