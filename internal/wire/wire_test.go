package wire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestScalarPrimitivesRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 1<<40)
	b = AppendVarint(b, -77)
	b = AppendInt(b, -123456)
	b = AppendInt32(b, -40000)
	b = AppendInt16(b, -8)
	b = AppendByte(b, 0xAB)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendFloat64(b, -3.25)
	b = AppendString(b, "héllo")
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendBytes(b, nil)

	d := NewDec(b)
	if got := d.Uvarint(); got != 1<<40 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := d.Varint(); got != -77 {
		t.Errorf("Varint = %d", got)
	}
	if got := d.Int(); got != -123456 {
		t.Errorf("Int = %d", got)
	}
	if got := d.Int32(); got != -40000 {
		t.Errorf("Int32 = %d", got)
	}
	if got := d.Int16(); got != -8 {
		t.Errorf("Int16 = %d", got)
	}
	if got := d.Byte(); got != 0xAB {
		t.Errorf("Byte = %x", got)
	}
	if !d.Bool() || d.Bool() {
		t.Errorf("Bool round trip broken")
	}
	if got := d.Float64(); got != -3.25 {
		t.Errorf("Float64 = %v", got)
	}
	if got := d.String(); got != "héllo" {
		t.Errorf("String = %q", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := d.Bytes(); got != nil {
		t.Errorf("empty Bytes should decode nil, got %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestByteSlicesLayoutModes(t *testing.T) {
	cases := map[string][][]byte{
		"nil":           nil,
		"general":       {{1}, {2, 3}, {4, 5, 6}},
		"uniform":       {{1, 2}, {3, 4}, {5, 6}},
		"sparse":        {{1, 2}, nil, {5, 6}, nil},
		"all-empty":     {nil, nil, nil},
		"single":        {{9, 9, 9}},
		"general-empty": {{1}, nil, {2, 3}},
	}
	for name, in := range cases {
		b := AppendByteSlices(nil, in)
		d := NewDec(b)
		got := d.ByteSlices()
		if err := d.Finish(); err != nil {
			t.Fatalf("%s: Finish: %v", name, err)
		}
		want := in
		if len(in) == 0 {
			want = nil
		}
		// Empty elements decode as nil regardless of how they were built.
		norm := make([][]byte, len(want))
		for i, e := range want {
			if len(e) > 0 {
				norm[i] = e
			}
		}
		if want == nil {
			norm = nil
		}
		if !reflect.DeepEqual(got, norm) {
			t.Errorf("%s: round trip %v != %v", name, got, norm)
		}
	}
}

func TestByteSlicesUniformElidesLengths(t *testing.T) {
	// 64 ciphertexts of 32 bytes: uniform layout must beat per-element
	// prefixes by ~one byte per element.
	uniform := make([][]byte, 64)
	for i := range uniform {
		uniform[i] = bytes.Repeat([]byte{byte(i)}, 32)
	}
	ragged := make([][]byte, 64)
	copy(ragged, uniform)
	ragged[7] = []byte{1} // break uniformity
	nu := len(AppendByteSlices(nil, uniform))
	nr := len(AppendByteSlices(nil, ragged))
	if nu >= nr {
		t.Errorf("uniform layout (%d B) should be smaller than general (%d B)", nu, nr)
	}
}

func TestIntSlicesRoundTrip(t *testing.T) {
	b := AppendInt16s(nil, []int16{-3, 0, 7, 32767, -32768})
	b = AppendInt32s(b, []int32{1, -1, 1 << 30})
	b = AppendUint64s(b, []uint64{0, 1, 1 << 60})
	b = AppendInt16s(b, nil)
	d := NewDec(b)
	if got := d.Int16s(); !reflect.DeepEqual(got, []int16{-3, 0, 7, 32767, -32768}) {
		t.Errorf("Int16s = %v", got)
	}
	if got := d.Int32s(); !reflect.DeepEqual(got, []int32{1, -1, 1 << 30}) {
		t.Errorf("Int32s = %v", got)
	}
	if got := d.Uint64s(); !reflect.DeepEqual(got, []uint64{0, 1, 1 << 60}) {
		t.Errorf("Uint64s = %v", got)
	}
	if got := d.Int16s(); got != nil {
		t.Errorf("empty Int16s should decode nil, got %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestDecoderErrorsInsteadOfPanicsOrAllocs(t *testing.T) {
	cases := map[string][]byte{
		"truncated uvarint":    {0x80},
		"string too long":      AppendUvarint(nil, 1000),
		"bytes too long":       AppendUvarint(nil, 1<<40),
		"huge slice count":     AppendUvarint(nil, 1<<50), // interpreted as ByteSlices count
		"unknown layout mode":  append(AppendUvarint(nil, 2), 9, 0, 0),
		"uniform over budget":  append(AppendUvarint(nil, 4), sliceUniform, 0x7F),
		"sparse zero length":   append(AppendUvarint(nil, 2), sliceSparse, 0, 0xFF),
		"general under budget": append(AppendUvarint(nil, 200), sliceGeneral),
	}
	for name, body := range cases {
		d := NewDec(body)
		switch name {
		case "truncated uvarint":
			d.Uvarint()
		case "string too long":
			_ = d.String()
		case "bytes too long":
			d.Bytes()
		default:
			d.ByteSlices()
		}
		if d.Err() == nil {
			t.Errorf("%s: expected a decode error", name)
		}
	}
}

func TestFinishRejectsTrailingBytes(t *testing.T) {
	b := AppendInt(nil, 7)
	b = append(b, 0xFF)
	d := NewDec(b)
	d.Int()
	if err := d.Finish(); err == nil {
		t.Fatal("expected trailing-bytes error")
	}
}

func TestDecodedSlicesDoNotAliasFrame(t *testing.T) {
	b := AppendBytes(nil, []byte{1, 2, 3})
	b = AppendByteSlices(b, [][]byte{{4, 4}, {5, 5}})
	d := NewDec(b)
	one := d.Bytes()
	two := d.ByteSlices()
	for i := range b {
		b[i] = 0xEE
	}
	if !bytes.Equal(one, []byte{1, 2, 3}) {
		t.Errorf("Bytes aliases the frame: %v", one)
	}
	if !bytes.Equal(two[0], []byte{4, 4}) || !bytes.Equal(two[1], []byte{5, 5}) {
		t.Errorf("ByteSlices aliases the frame: %v", two)
	}
}

// testMsg exercises the frame layer without core's message set. The high
// ID keeps it clear of the protocol's range.
type testMsg struct {
	A int
	B []byte
}

const testMsgID uint16 = 60000

func (testMsg) WireID() uint16 { return testMsgID }
func (m testMsg) AppendTo(b []byte) []byte {
	b = AppendInt(b, m.A)
	return AppendBytes(b, m.B)
}
func (m *testMsg) DecodeFrom(body []byte) error {
	d := NewDec(body)
	m.A = d.Int()
	m.B = d.Bytes()
	return d.Finish()
}

func init() {
	Register(testMsgID, "testMsg", func(body []byte) (any, error) {
		var m testMsg
		if err := m.DecodeFrom(body); err != nil {
			return nil, err
		}
		return m, nil
	})
}

func TestBinaryFrameRoundTrip(t *testing.T) {
	in := testMsg{A: -42, B: []byte{9, 8, 7}}
	payload, err := Binary.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if payload[0] != TagBinaryV1 {
		t.Fatalf("frame tag = %x", payload[0])
	}
	out, err := Binary.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip %+v != %+v", out, in)
	}
	PutBuf(payload)
}

func TestBinaryFrameErrors(t *testing.T) {
	good, err := Binary.Encode(testMsg{A: 1, B: []byte{2}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"short header":     good[:3],
		"bad version":      append([]byte{0x7E}, good[1:]...),
		"length mismatch":  append(append([]byte{}, good...), 0xFF),
		"unknown id":       append([]byte{TagBinaryV1, 0xFF, 0xFE}, good[3:]...),
		"corrupt body":     append(append([]byte{}, good[:7]...), 0x80), // truncated varint, patched length
		"not a wire frame": {0x42, 0x00},
	}
	// Fix up the corrupt-body case's declared length.
	cb := cases["corrupt body"]
	cb[3], cb[4], cb[5], cb[6] = 0, 0, 0, 1
	for name, payload := range cases {
		if _, err := Binary.Decode(payload); err == nil {
			t.Errorf("%s: expected decode error", name)
		}
	}
	if _, err := Binary.Encode(struct{}{}); err == nil {
		t.Error("encoding a non-Message should fail")
	}
}

// TestDetect: the leading tag byte alone decides how a frame is read. An
// empty frame has no tag; an unknown tag is refused as an unsupported
// version even when the rest is a well-formed frame; the binary tag is
// decoded; the retired gob tag is refused by name.
func TestDetect(t *testing.T) {
	good, err := Binary.Encode(testMsg{A: 5, B: []byte{6}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Binary.Decode(nil); err == nil {
		t.Error("empty frame should fail")
	}
	if _, err := Binary.Decode([]byte{0x7F}); err == nil {
		t.Error("lone unknown tag should fail")
	}
	unknown := append([]byte{0x7F}, good[1:]...)
	if _, err := Binary.Decode(unknown); err == nil || !strings.Contains(err.Error(), "unsupported binary frame version 0x7f") {
		t.Errorf("unknown tag: err %v, want an unsupported-version refusal", err)
	}
	if m, err := Binary.Decode(good); err != nil || !reflect.DeepEqual(m, testMsg{A: 5, B: []byte{6}}) {
		t.Errorf("binary tag: %v %v", m, err)
	}
	gob := append([]byte{TagGob}, good[1:]...)
	if _, err := Binary.Decode(gob); err == nil || !strings.Contains(err.Error(), "retired gob codec") {
		t.Errorf("gob tag: err %v, want a refusal naming the retired gob codec", err)
	}
}

// TestBinaryRefusesRetiredGobTag: tag 0x00 belonged to the retired gob
// codec. A frame carrying it is refused by name, however short, and even
// when the rest of it is a well-formed binary frame.
func TestBinaryRefusesRetiredGobTag(t *testing.T) {
	good, err := Binary.Encode(testMsg{A: 3, B: []byte{4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range [][]byte{
		{TagGob},
		{TagGob, 0xFF, 0x01},
		append([]byte{TagGob}, good[1:]...),
	} {
		_, err := Binary.Decode(payload)
		if err == nil || !strings.Contains(err.Error(), "retired gob codec") {
			t.Errorf("frame % x: err %v, want a refusal naming the retired gob codec", payload, err)
		}
	}
}

func TestBufferPoolRecycles(t *testing.T) {
	b := GetBufN(100)
	if len(b) != 100 {
		t.Fatalf("GetBufN length = %d", len(b))
	}
	PutBuf(b)
	PutBuf(nil) // must not panic
	big := make([]byte, maxPooledCap+1)
	PutBuf(big) // over the cap: dropped, must not panic
	c := GetBuf()
	if len(c) != 0 {
		t.Fatalf("GetBuf should be empty, got %d", len(c))
	}
}

func TestMessageNamesSorted(t *testing.T) {
	names := MessageNames()
	if len(names) == 0 {
		t.Fatal("no registered messages")
	}
	ids := MessageIDs()
	if _, ok := ids[testMsgID]; !ok {
		t.Fatal("test message missing from registry")
	}
}
