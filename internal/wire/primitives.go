package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Primitive encoders (Append*) and the error-latching decoder (Dec) the
// per-message AppendTo/DecodeFrom implementations are built from. All
// variable-size integers use the standard varint encodings; float64 is
// fixed 8-byte big-endian IEEE 754; byte slices are length-prefixed.
// Decoders bound every declared count by the bytes actually remaining, so
// a malformed frame fails with an error instead of a huge allocation or a
// panic — the property FuzzWireDecode holds us to.

// Byte-slice-sequence layout modes. Ciphertext batches are almost always
// uniform (every ciphertext of one scheme marshals to the same width), so
// sliceUniform elides the per-element length prefixes; sliceSparse keeps
// the win when empty bins (exact zeros, encoded as nil payloads) are
// interleaved with uniform ciphertexts.
const (
	sliceGeneral byte = 0 // per-element length prefixes
	sliceUniform byte = 1 // one shared length, bodies concatenated
	sliceSparse  byte = 2 // shared length + presence bitmap; absent = nil
)

// maxElems bounds any decoded element count as a second line of defense
// behind the remaining-bytes checks.
const maxElems = 1 << 26

// AppendUvarint appends an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends a zigzag varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendInt appends an int as a zigzag varint.
func AppendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

// AppendInt32 appends an int32 as a zigzag varint.
func AppendInt32(b []byte, v int32) []byte { return binary.AppendVarint(b, int64(v)) }

// AppendInt16 appends an int16 as a zigzag varint (fixed-point exponents
// are near zero, so this is one byte almost always).
func AppendInt16(b []byte, v int16) []byte { return binary.AppendVarint(b, int64(v)) }

// AppendByte appends one raw byte.
func AppendByte(b []byte, v byte) []byte { return append(b, v) }

// AppendBool appends a bool as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat64 appends a float64 as 8 big-endian bytes.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends a length-prefixed byte slice (nil and empty encode
// identically, as length zero).
func AppendBytes(b, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// AppendByteSlices appends a sequence of byte slices, choosing the layout
// mode: uniform ciphertext batches lose their per-element prefixes,
// uniform-with-gaps batches (empty bins) carry a presence bitmap, and
// anything irregular falls back to per-element prefixes.
func AppendByteSlices(b []byte, s [][]byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	if len(s) == 0 {
		return b
	}
	sharedLen := -1
	uniform := true
	hasEmpty := false
	for _, e := range s {
		if len(e) == 0 {
			hasEmpty = true
			continue
		}
		if sharedLen == -1 {
			sharedLen = len(e)
		} else if len(e) != sharedLen {
			uniform = false
			break
		}
	}
	switch {
	case uniform && sharedLen == -1:
		// Every element empty: uniform with shared length zero.
		b = append(b, sliceUniform)
		b = binary.AppendUvarint(b, 0)
	case uniform && !hasEmpty:
		b = append(b, sliceUniform)
		b = binary.AppendUvarint(b, uint64(sharedLen))
		for _, e := range s {
			b = append(b, e...)
		}
	case uniform:
		b = append(b, sliceSparse)
		b = binary.AppendUvarint(b, uint64(sharedLen))
		off := len(b)
		b = append(b, make([]byte, (len(s)+7)/8)...)
		for i, e := range s {
			if len(e) > 0 {
				b[off+i/8] |= 1 << (i % 8)
			}
		}
		for _, e := range s {
			b = append(b, e...)
		}
	default:
		b = append(b, sliceGeneral)
		for _, e := range s {
			b = AppendBytes(b, e)
		}
	}
	return b
}

// AppendInt16s appends a count-prefixed []int16 of zigzag varints.
func AppendInt16s(b []byte, s []int16) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	for _, v := range s {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

// AppendInt32s appends a count-prefixed []int32 of zigzag varints.
func AppendInt32s(b []byte, s []int32) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	for _, v := range s {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

// AppendUint64s appends a count-prefixed []uint64 of varints.
func AppendUint64s(b []byte, s []uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	for _, v := range s {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// Dec is an error-latching decoder over one frame body: after the first
// failure every subsequent read returns a zero value, and Finish reports
// the latched error (or trailing garbage). Decoded slices and strings are
// always copies — the frame buffer can be pooled the moment DecodeFrom
// returns.
type Dec struct {
	b   []byte
	err error
}

// NewDec starts decoding a frame body.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first decode error, if any.
func (d *Dec) Err() error { return d.err }

// Finish returns the latched error, or an error if undecoded bytes remain
// (a length/content mismatch that would otherwise pass silently).
func (d *Dec) Finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes after message body", len(d.b))
	}
	return nil
}

// Fail latches a decode error (the first failure wins); composite
// decoders built on Dec use it for their own bounds checks.
func (d *Dec) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (d *Dec) fail(format string, args ...any) { d.Fail(format, args...) }

// Remaining returns the undecoded byte count — the bound every declared
// element count must respect.
func (d *Dec) Remaining() int { return len(d.b) }

func (d *Dec) remaining() int { return len(d.b) }

// take consumes n raw bytes without copying; callers must copy before the
// frame buffer is released.
func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b) {
		d.fail("need %d bytes, have %d", n, len(d.b))
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint reads a zigzag varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Int reads an int-sized zigzag varint.
func (d *Dec) Int() int { return int(d.Varint()) }

// Int32 reads an int32, failing on overflow.
func (d *Dec) Int32() int32 {
	v := d.Varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		d.fail("value %d overflows int32", v)
		return 0
	}
	return int32(v)
}

// Int16 reads an int16, failing on overflow.
func (d *Dec) Int16() int16 {
	v := d.Varint()
	if v < math.MinInt16 || v > math.MaxInt16 {
		d.fail("value %d overflows int16", v)
		return 0
	}
	return int16(v)
}

// Byte reads one raw byte.
func (d *Dec) Byte() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a one-byte bool, failing on values other than 0 or 1.
func (d *Dec) Bool() bool {
	switch d.Byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("invalid bool byte")
		return false
	}
}

// Float64 reads an 8-byte big-endian float64.
func (d *Dec) Float64() float64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b))
}

// String reads a length-prefixed string (copied).
func (d *Dec) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.remaining()) {
		d.fail("string of %d bytes, only %d remain", n, d.remaining())
		return ""
	}
	return string(d.take(int(n)))
}

// Bytes reads a length-prefixed byte slice. Zero length decodes as nil
// (the protocol's "empty payload means exact zero" bins).
func (d *Dec) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	if n > uint64(d.remaining()) {
		d.fail("byte slice of %d bytes, only %d remain", n, d.remaining())
		return nil
	}
	raw := d.take(int(n))
	return append([]byte(nil), raw...)
}

// ByteSlices reads a sequence written by AppendByteSlices. Zero count
// decodes as nil.
func (d *Dec) ByteSlices() [][]byte {
	count := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if count == 0 {
		return nil
	}
	if count > maxElems {
		d.fail("byte-slice count %d exceeds limit", count)
		return nil
	}
	mode := d.Byte()
	if d.err != nil {
		return nil
	}
	switch mode {
	case sliceGeneral:
		// Each element costs at least its one-byte length prefix.
		if count > uint64(d.remaining()) {
			d.fail("%d byte slices, only %d bytes remain", count, d.remaining())
			return nil
		}
		out := make([][]byte, count)
		for i := range out {
			out[i] = d.Bytes()
		}
		if d.err != nil {
			return nil
		}
		return out
	case sliceUniform:
		sharedLen := d.Uvarint()
		if d.err != nil {
			return nil
		}
		// Bounding sharedLen alone first keeps sharedLen*count (count is
		// already capped by maxElems) from overflowing uint64.
		if sharedLen > uint64(d.remaining()) || sharedLen*count > uint64(d.remaining()) {
			d.fail("%d uniform slices of %d bytes, only %d remain", count, sharedLen, d.remaining())
			return nil
		}
		out := make([][]byte, count)
		if sharedLen == 0 {
			return out
		}
		flat := append([]byte(nil), d.take(int(sharedLen*count))...)
		for i := range out {
			out[i] = flat[uint64(i)*sharedLen : uint64(i+1)*sharedLen : uint64(i+1)*sharedLen]
		}
		return out
	case sliceSparse:
		sharedLen := d.Uvarint()
		if d.err != nil {
			return nil
		}
		if sharedLen == 0 || sharedLen > uint64(d.remaining()) {
			d.fail("sparse byte slices with shared length %d (%d bytes remain)", sharedLen, d.remaining())
			return nil
		}
		bitmap := d.take(int((count + 7) / 8))
		if d.err != nil {
			return nil
		}
		present := uint64(0)
		for i := uint64(0); i < count; i++ {
			if bitmap[i/8]&(1<<(i%8)) != 0 {
				present++
			}
		}
		if sharedLen*present > uint64(d.remaining()) {
			d.fail("%d present slices of %d bytes, only %d remain", present, sharedLen, d.remaining())
			return nil
		}
		flat := append([]byte(nil), d.take(int(sharedLen*present))...)
		out := make([][]byte, count)
		next := uint64(0)
		for i := uint64(0); i < count; i++ {
			if bitmap[i/8]&(1<<(i%8)) != 0 {
				out[i] = flat[next*sharedLen : (next+1)*sharedLen : (next+1)*sharedLen]
				next++
			}
		}
		return out
	default:
		d.fail("unknown byte-slice layout mode %d", mode)
		return nil
	}
}

// Int16s reads a count-prefixed []int16. Zero count decodes as nil.
func (d *Dec) Int16s() []int16 {
	count := d.Uvarint()
	if d.err != nil || count == 0 {
		return nil
	}
	if count > uint64(d.remaining()) {
		d.fail("%d int16s, only %d bytes remain", count, d.remaining())
		return nil
	}
	out := make([]int16, count)
	for i := range out {
		out[i] = d.Int16()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// Int32s reads a count-prefixed []int32. Zero count decodes as nil.
func (d *Dec) Int32s() []int32 {
	count := d.Uvarint()
	if d.err != nil || count == 0 {
		return nil
	}
	if count > uint64(d.remaining()) {
		d.fail("%d int32s, only %d bytes remain", count, d.remaining())
		return nil
	}
	out := make([]int32, count)
	for i := range out {
		out[i] = d.Int32()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// Uint64s reads a count-prefixed []uint64. Zero count decodes as nil.
func (d *Dec) Uint64s() []uint64 {
	count := d.Uvarint()
	if d.err != nil || count == 0 {
		return nil
	}
	if count > uint64(d.remaining()) {
		d.fail("%d uint64s, only %d bytes remain", count, d.remaining())
		return nil
	}
	out := make([]uint64, count)
	for i := range out {
		out[i] = d.Uvarint()
	}
	if d.err != nil {
		return nil
	}
	return out
}
