package ooc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"
	"sync"

	"vf2boost/internal/fault/fsfault"
)

// On-disk shard format, following the checkpoint store's framing idiom:
//
//	magic "VF2OOCS1" | uint32 CRC-32 (IEEE) of body | uint64 body length | body
//
// with the body a little-endian CSR block:
//
//	uint64 startRow | uint64 numRows | uint64 nnz
//	rowPtr  (numRows+1) × uint32
//	cols    nnz × uint32
//	bins    nnz × uint8
//
// Shards are written to a temp file in the store directory and renamed
// into place, so a crashed build never leaves a half-written shard under
// a committed name; the CRC catches bit rot and torn writes at load.

const (
	shardMagic  = "VF2OOCS1"
	labelsMagic = "VF2OOCL1"
	frameHeader = 8 + 4 + 8
)

// shardData is one loaded shard: the binned CSR rows of a contiguous
// row range.
type shardData struct {
	startRow int
	rowPtr   []int32
	cols     []int32
	bins     []uint8
}

// memBytes estimates the shard's resident size for budget accounting.
func (sd *shardData) memBytes() int64 {
	return int64(len(sd.rowPtr))*4 + int64(len(sd.cols))*4 + int64(len(sd.bins))
}

// estShardBytes predicts a shard's resident size from its manifest entry.
func estShardBytes(rows, nnz int) int64 {
	return int64(rows+1)*4 + int64(nnz)*4 + int64(nnz)
}

// encodeShard serializes a shard into a framed byte slice.
func encodeShard(sd *shardData) []byte {
	nnz := len(sd.cols)
	rows := len(sd.rowPtr) - 1
	bodyLen := 24 + (rows+1)*4 + nnz*4 + nnz
	buf := make([]byte, frameHeader+bodyLen)
	body := buf[frameHeader:]
	binary.LittleEndian.PutUint64(body[0:], uint64(sd.startRow))
	binary.LittleEndian.PutUint64(body[8:], uint64(rows))
	binary.LittleEndian.PutUint64(body[16:], uint64(nnz))
	off := 24
	for _, p := range sd.rowPtr {
		binary.LittleEndian.PutUint32(body[off:], uint32(p))
		off += 4
	}
	for _, c := range sd.cols {
		binary.LittleEndian.PutUint32(body[off:], uint32(c))
		off += 4
	}
	copy(body[off:], sd.bins)
	copy(buf, shardMagic)
	binary.LittleEndian.PutUint32(buf[8:], crc32.ChecksumIEEE(body))
	binary.LittleEndian.PutUint64(buf[12:], uint64(bodyLen))
	return buf
}

// decodeShard parses and validates a framed shard payload.
func decodeShard(buf []byte, wantCols int) (*shardData, error) {
	body, err := checkFrame(buf, shardMagic)
	if err != nil {
		return nil, err
	}
	if len(body) < 24 {
		return nil, fmt.Errorf("ooc: shard body truncated (%d bytes)", len(body))
	}
	startRow := binary.LittleEndian.Uint64(body[0:])
	rows := binary.LittleEndian.Uint64(body[8:])
	nnz := binary.LittleEndian.Uint64(body[16:])
	if startRow > math.MaxInt32 || rows > math.MaxInt32 || nnz > math.MaxInt32 {
		return nil, fmt.Errorf("ooc: shard header out of range (start=%d rows=%d nnz=%d)", startRow, rows, nnz)
	}
	if uint64(len(body)-24) != (rows+1)*4+nnz*5 {
		return nil, fmt.Errorf("ooc: shard body length %d does not match rows=%d nnz=%d", len(body), rows, nnz)
	}
	sd := &shardData{
		startRow: int(startRow),
		rowPtr:   make([]int32, rows+1),
		cols:     make([]int32, nnz),
		bins:     make([]uint8, nnz),
	}
	off := 24
	prev := int32(-1)
	for i := range sd.rowPtr {
		p := binary.LittleEndian.Uint32(body[off:])
		if p > uint32(nnz) || int32(p) < prev {
			return nil, fmt.Errorf("ooc: shard rowPtr[%d]=%d out of order", i, p)
		}
		sd.rowPtr[i] = int32(p)
		prev = int32(p)
		off += 4
	}
	if sd.rowPtr[0] != 0 || sd.rowPtr[rows] != int32(nnz) {
		return nil, fmt.Errorf("ooc: shard rowPtr bounds [%d,%d] do not span nnz=%d", sd.rowPtr[0], sd.rowPtr[rows], nnz)
	}
	for i := range sd.cols {
		c := binary.LittleEndian.Uint32(body[off:])
		if int(c) >= wantCols {
			return nil, fmt.Errorf("ooc: shard column %d out of range [0,%d)", c, wantCols)
		}
		sd.cols[i] = int32(c)
		off += 4
	}
	copy(sd.bins, body[off:])
	return sd, nil
}

// checkFrame validates magic, CRC and length, returning the body.
func checkFrame(buf []byte, magic string) ([]byte, error) {
	if len(buf) < frameHeader || string(buf[:8]) != magic {
		return nil, fmt.Errorf("ooc: bad magic (want %s)", magic)
	}
	wantCRC := binary.LittleEndian.Uint32(buf[8:])
	bodyLen := binary.LittleEndian.Uint64(buf[12:])
	if uint64(len(buf)-frameHeader) != bodyLen {
		return nil, fmt.Errorf("ooc: frame length %d does not match header %d", len(buf)-frameHeader, bodyLen)
	}
	body := buf[frameHeader:]
	if crc32.ChecksumIEEE(body) != wantCRC {
		return nil, fmt.Errorf("ooc: CRC mismatch (corrupt file)")
	}
	return body, nil
}

// tempPattern names the build/rebuild temp files; debris matching it is
// an aborted write and safe to sweep.
const tempPattern = ".ooc-*"

// writeAtomic atomically writes a payload: temp file in the same
// directory, write, sync, close, rename. All I/O goes through fsys so
// fault injection sees every step.
func writeAtomic(fsys fsfault.FS, path string, buf []byte) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, tempPattern)
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		fsys.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		fsys.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmpName)
		return err
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		fsys.Remove(tmpName)
		return err
	}
	return nil
}

// writeShard persists one shard.
func writeShard(fsys fsfault.FS, path string, sd *shardData) error {
	return writeAtomic(fsys, path, encodeShard(sd))
}

// shardBufs recycles shard file images between loads. A load reads the
// whole file into one, and decodeShard copies every field out, so no
// shard aliases the buffer once it is back in the pool.
var shardBufs = sync.Pool{New: func() any { return new([]byte) }}

// readShard loads and validates one shard.
func readShard(fsys fsfault.FS, path string, wantCols int) (*shardData, error) {
	pb := shardBufs.Get().(*[]byte)
	defer shardBufs.Put(pb)
	buf, err := fsys.ReadFile(path, (*pb)[:0])
	if cap(buf) > cap(*pb) {
		*pb = buf // keep the larger array for the next load
	}
	if err != nil {
		return nil, err
	}
	sd, err := decodeShard(buf, wantCols)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", err, path)
	}
	return sd, nil
}

// writeLabels persists the label vector under the same framing.
func writeLabels(fsys fsfault.FS, path string, labels []float64) error {
	buf := make([]byte, frameHeader+len(labels)*8)
	body := buf[frameHeader:]
	for i, v := range labels {
		binary.LittleEndian.PutUint64(body[i*8:], math.Float64bits(v))
	}
	copy(buf, labelsMagic)
	binary.LittleEndian.PutUint32(buf[8:], crc32.ChecksumIEEE(body))
	binary.LittleEndian.PutUint64(buf[12:], uint64(len(body)))
	return writeAtomic(fsys, path, buf)
}

// readLabels loads the label vector.
func readLabels(fsys fsfault.FS, path string, wantRows int) ([]float64, error) {
	buf, err := fsys.ReadFile(path, nil)
	if err != nil {
		return nil, err
	}
	body, err := checkFrame(buf, labelsMagic)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", err, path)
	}
	if len(body) != wantRows*8 {
		return nil, fmt.Errorf("ooc: labels file holds %d rows, want %d: %s", len(body)/8, wantRows, path)
	}
	labels := make([]float64, wantRows)
	for i := range labels {
		labels[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[i*8:]))
	}
	return labels, nil
}
