// Package checkpoint is an atomic, CRC-guarded on-disk snapshot store.
// Training writes one snapshot per completed boosting round; resume loads
// the newest snapshot that passes integrity checks, silently skipping
// truncated or corrupted files (a crash mid-write must never poison
// recovery). Snapshots are JSON bodies framed as
//
//	8-byte magic "VF2CKPT1" | uint32 CRC-32 (IEEE, of the body) |
//	uint64 body length | body
//
// and each Save goes through a temp file + rename, so a reader never
// observes a partially-written snapshot under POSIX rename atomicity.
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"vf2boost/internal/fault/fsfault"
)

const (
	magic      = "VF2CKPT1"
	headerSize = len(magic) + 4 + 8
	prefix     = "ckpt-"
	suffix     = ".vfck"
	tmpPrefix  = ".tmp-"
)

// Store manages the snapshots of one party in one directory. Snapshot
// sequence numbers are positive and monotone (training uses the number of
// completed trees); Save overwrites an existing sequence atomically.
type Store struct {
	dir  string
	fs   fsfault.FS
	keep int // retain at most this many newest snapshots; 0 = all
}

// Open creates the directory if needed and returns a store over it,
// sweeping any temp debris a crashed writer left behind.
func Open(dir string) (*Store, error) {
	return OpenFS(dir, nil)
}

// OpenFS is Open with an explicit filesystem (nil means the real one);
// the storage-chaos harness installs a fault injector here.
func OpenFS(dir string, fsys fsfault.FS) (*Store, error) {
	if fsys == nil {
		fsys = fsfault.OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: creating %s: %w", dir, err)
	}
	s := &Store{dir: dir, fs: fsys}
	s.sweepTemp()
	return s, nil
}

// sweepTemp removes orphaned temp files — debris of writers that died
// between CreateTemp and rename. They never carried a committed name, so
// deleting them cannot lose a snapshot.
func (s *Store) sweepTemp() {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			s.fs.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// SetKeep bounds retention to the n newest snapshots (0 keeps all).
// Resume may need to step back past the newest snapshot (the active party
// rewinds to the slowest passive party's round), so keep a few.
func (s *Store) SetKeep(n int) { s.keep = n }

func (s *Store) path(seq int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%08d%s", prefix, seq, suffix))
}

// Save atomically writes snapshot seq with v's JSON encoding as the body.
func (s *Store) Save(seq int, v any) error {
	if seq <= 0 {
		return fmt.Errorf("checkpoint: sequence %d must be positive", seq)
	}
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding snapshot %d: %w", seq, err)
	}
	buf := make([]byte, 0, headerSize+len(body))
	buf = append(buf, magic...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(body)))
	buf = append(buf, body...)

	tmp, err := s.fs.CreateTemp(s.dir, tmpPrefix+prefix+"*")
	if err != nil {
		return fmt.Errorf("checkpoint: temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		s.fs.Remove(tmpName)
		return fmt.Errorf("checkpoint: writing snapshot %d: %w", seq, err)
	}
	if err := s.fs.Rename(tmpName, s.path(seq)); err != nil {
		s.fs.Remove(tmpName)
		return fmt.Errorf("checkpoint: publishing snapshot %d: %w", seq, err)
	}
	s.prune()
	return nil
}

// prune removes the oldest snapshots beyond the retention bound.
func (s *Store) prune() {
	if s.keep <= 0 {
		return
	}
	seqs := s.Seqs()
	for len(seqs) > s.keep {
		s.fs.Remove(s.path(seqs[0]))
		seqs = seqs[1:]
	}
}

// Seqs lists the stored snapshot sequence numbers in ascending order
// (whatever files exist — integrity is checked at load time).
func (s *Store) Seqs() []int {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var seqs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		seq, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix))
		if err != nil || seq <= 0 {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	return seqs
}

// Load reads snapshot seq into v, verifying magic, length, and CRC.
func (s *Store) Load(seq int, v any) error {
	raw, err := s.fs.ReadFile(s.path(seq), nil)
	if err != nil {
		return fmt.Errorf("checkpoint: reading snapshot %d: %w", seq, err)
	}
	if len(raw) < headerSize || string(raw[:len(magic)]) != magic {
		return fmt.Errorf("checkpoint: snapshot %d has a bad header", seq)
	}
	sum := binary.BigEndian.Uint32(raw[len(magic):])
	n := binary.BigEndian.Uint64(raw[len(magic)+4:])
	body := raw[headerSize:]
	if n != uint64(len(body)) {
		return fmt.Errorf("checkpoint: snapshot %d declares %d body bytes, carries %d", seq, n, len(body))
	}
	if crc32.ChecksumIEEE(body) != sum {
		return fmt.Errorf("checkpoint: snapshot %d failed its CRC check", seq)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("checkpoint: decoding snapshot %d: %w", seq, err)
	}
	return nil
}

// LoadLatest loads the newest snapshot that passes integrity checks into
// v and returns its sequence number. It returns (0, nil) when no valid
// snapshot exists — corrupted files are skipped, not fatal. Orphaned
// temp files encountered on the way are cleaned up, so a crash between
// temp write and rename leaves no debris past the next recovery.
func (s *Store) LoadLatest(v any) (int, error) {
	s.sweepTemp()
	seqs := s.Seqs()
	for i := len(seqs) - 1; i >= 0; i-- {
		if err := s.Load(seqs[i], v); err == nil {
			return seqs[i], nil
		}
	}
	return 0, nil
}
