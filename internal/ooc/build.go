package ooc

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"vf2boost/internal/fault/fsfault"
	"vf2boost/internal/gbdt"
)

// BuildOptions configures the two-pass store build.
type BuildOptions struct {
	// MaxBins is s, the histogram bins per feature (default 20, the
	// trainer's default; bounds [2,256]).
	MaxBins int
	// ChunkRows is the shard height in rows (default 1<<16). Every shard
	// except the last covers exactly ChunkRows rows, so the shard holding
	// row i is shard i/ChunkRows.
	ChunkRows int
	// Workers > 1 reads a range-scannable source (RangeSource) on that
	// many goroutines, in ChunkRows-row chunks consumed in row order, so
	// manifests, shard files and labels come out byte-identical to a
	// sequential build. Other sources (LibSVM) are read by one Scan.
	// <= 1 reads sequentially.
	Workers int
	// FS is the filesystem the build writes through; nil means the real
	// one. Tests and the -fschaos CLI knob install a fault injector here.
	FS fsfault.FS
}

func (o *BuildOptions) normalize() error {
	if o.MaxBins == 0 {
		o.MaxBins = 20
	}
	if o.MaxBins < 2 || o.MaxBins > 256 {
		return fmt.Errorf("ooc: MaxBins %d out of [2,256]", o.MaxBins)
	}
	if o.ChunkRows == 0 {
		o.ChunkRows = 1 << 16
	}
	if o.ChunkRows < 1 {
		return fmt.Errorf("ooc: ChunkRows %d must be positive", o.ChunkRows)
	}
	if o.Workers < 0 {
		o.Workers = 0
	}
	if o.FS == nil {
		o.FS = fsfault.OS
	}
	return nil
}

// manifest is the store's commit record, written last: a directory
// without a readable manifest is an aborted build, not a store. Cuts
// ride in the manifest as JSON — Go's float64 JSON round-trip is exact,
// so the mapper reloads bit-for-bit.
type manifest struct {
	Version   int           `json:"version"`
	Rows      int           `json:"rows"`
	Cols      int           `json:"cols"`
	MaxBins   int           `json:"max_bins"`
	ChunkRows int           `json:"chunk_rows"`
	Labeled   bool          `json:"labeled"`
	Cuts      [][]float64   `json:"cuts"`
	Shards    []shardRecord `json:"shards"`
}

type shardRecord struct {
	File     string `json:"file"`
	StartRow int    `json:"start_row"`
	Rows     int    `json:"rows"`
	NNZ      int    `json:"nnz"`
}

const (
	manifestVersion = 1
	manifestName    = "manifest.json"
	labelsName      = "labels.bin"
	// quarantineSuffix marks a shard file pulled out of service after its
	// content failed validation beyond retry; kept (not deleted) so the
	// evidence survives for post-mortems, swept when disk space runs out.
	quarantineSuffix = ".bad"
)

// manifestFileName names generation gen's commit record. Generation 0 is
// the legacy un-numbered name, so stores built before generations existed
// read as generation 0.
func manifestFileName(gen int) string {
	if gen == 0 {
		return manifestName
	}
	return fmt.Sprintf("manifest-%06d.json", gen)
}

// parseManifestGen inverts manifestFileName.
func parseManifestGen(name string) (int, bool) {
	if name == manifestName {
		return 0, true
	}
	rest, ok := strings.CutPrefix(name, "manifest-")
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, ".json")
	if !ok || len(rest) != 6 {
		return 0, false
	}
	gen, err := strconv.Atoi(rest)
	if err != nil || gen < 1 {
		return 0, false
	}
	return gen, true
}

// Build constructs a binned shard store under dir from two streaming
// passes over src: pass 1 proposes cuts (see sketch.go), pass 2
// discretizes each chunk through the mapper and spills it as a
// CRC-guarded shard. Labels (when src.Labeled()) accumulate in memory —
// 8 bytes/row, the one per-row cost that never spills — and land in a
// framed labels file. The manifest is written last as the commit point.
// Both passes read src through one chunkReader. Peak memory is the
// pass-1 accumulators plus the reader's chunks: one raw chunk (12 bytes
// per stored entry) and its bins when reading sequentially, Workers+2 of
// them when reading in parallel.
//
// A disk-full failure on any spill triggers backpressure instead of a
// fail-stop: the build sweeps aborted-write temp files and quarantined
// shards out of the directory and retries the write once; only a second
// ENOSPC propagates.
func Build(dir string, src Source, opt BuildOptions) error {
	if err := opt.normalize(); err != nil {
		return err
	}
	fsys := opt.FS
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	mapper, rows, err := proposeCuts(src, opt)
	if err != nil {
		return err
	}
	if rows == 0 {
		return fmt.Errorf("ooc: source delivered no rows")
	}

	man := &manifest{
		Version:   manifestVersion,
		Rows:      rows,
		Cols:      src.Cols(),
		MaxBins:   opt.MaxBins,
		ChunkRows: opt.ChunkRows,
		Labeled:   src.Labeled(),
		Cuts:      mapper.Cuts,
	}

	var labels []float64
	if man.Labeled {
		labels = make([]float64, 0, rows)
	}
	r := chunkReader{src: src, height: opt.ChunkRows, workers: opt.Workers, mapper: mapper}
	err = r.read(0, allRows, func(c *chunk) error {
		name := fmt.Sprintf("shard-%06d.bin", len(man.Shards))
		if err := writeRetryNoSpace(fsys, dir, func() error {
			return writeShard(fsys, filepath.Join(dir, name), &c.shardData)
		}); err != nil {
			return err
		}
		man.Shards = append(man.Shards, shardRecord{File: name, StartRow: c.startRow, Rows: c.rows(), NNZ: len(c.cols)})
		if man.Labeled {
			labels = append(labels, c.labels...)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("ooc: discretize pass: %w", err)
	}
	got := 0
	for _, s := range man.Shards {
		got += s.Rows
	}
	if got != rows {
		return fmt.Errorf("ooc: pass 2 delivered %d rows, pass 1 saw %d (source not replayable?)", got, rows)
	}

	if labels != nil {
		if err := writeRetryNoSpace(fsys, dir, func() error {
			return writeLabels(fsys, filepath.Join(dir, labelsName), labels)
		}); err != nil {
			return err
		}
	}

	return writeRetryNoSpace(fsys, dir, func() error {
		return writeManifest(fsys, dir, man, 0)
	})
}

// writeManifest commits one manifest generation: plain JSON, no binary
// frame — human-inspectable, and the loader cross-checks it structurally.
// Written atomically, last.
func writeManifest(fsys fsfault.FS, dir string, man *manifest, gen int) error {
	buf, err := json.MarshalIndent(man, "", " ")
	if err != nil {
		return err
	}
	return writeAtomic(fsys, filepath.Join(dir, manifestFileName(gen)), buf)
}

// writeRetryNoSpace runs a write, and on a disk-full failure (real or
// injected — both satisfy errors.Is(err, syscall.ENOSPC)) sweeps the
// store directory's reclaimable debris and retries once.
func writeRetryNoSpace(fsys fsfault.FS, dir string, write func() error) error {
	err := write()
	if err == nil || !errors.Is(err, syscall.ENOSPC) {
		return err
	}
	if n := sweepDebris(fsys, dir); n == 0 {
		return err // nothing reclaimable; retrying would just fail again
	}
	return write()
}

// sweepDebris removes aborted-write temp files and quarantined shards
// from a store directory, returning how many files it freed. Both kinds
// are disposable by construction: temp debris never had a committed name,
// and a quarantined shard's content already failed validation.
func sweepDebris(fsys fsfault.FS, dir string) int {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return 0
	}
	freed := 0
	for _, e := range entries {
		name := e.Name()
		ok, _ := filepath.Match(tempPattern, name)
		if !ok && !strings.HasSuffix(name, quarantineSuffix) {
			continue
		}
		if fsys.Remove(filepath.Join(dir, name)) == nil {
			freed++
		}
	}
	return freed
}

// decodeManifest parses and validates one commit record's bytes.
func decodeManifest(buf []byte) (*manifest, error) {
	var man manifest
	if err := json.Unmarshal(buf, &man); err != nil {
		return nil, fmt.Errorf("ooc: manifest: %w", err)
	}
	if man.Version != manifestVersion {
		return nil, fmt.Errorf("ooc: manifest version %d (want %d)", man.Version, manifestVersion)
	}
	if man.Rows <= 0 || man.Cols <= 0 || len(man.Cuts) != man.Cols || man.ChunkRows < 1 {
		return nil, fmt.Errorf("ooc: manifest inconsistent (rows=%d cols=%d cuts=%d chunk=%d)",
			man.Rows, man.Cols, len(man.Cuts), man.ChunkRows)
	}
	want := 0
	for i, s := range man.Shards {
		if s.StartRow != want || s.Rows < 1 {
			return nil, fmt.Errorf("ooc: manifest shard %d covers [%d,%d), want start %d", i, s.StartRow, s.StartRow+s.Rows, want)
		}
		if i < len(man.Shards)-1 && s.Rows != man.ChunkRows {
			return nil, fmt.Errorf("ooc: manifest shard %d has %d rows, want chunk height %d", i, s.Rows, man.ChunkRows)
		}
		want += s.Rows
	}
	if want != man.Rows {
		return nil, fmt.Errorf("ooc: manifest shards cover %d rows, want %d", want, man.Rows)
	}
	return &man, nil
}

// readManifest finds the newest consistent commit record in a store
// directory. Generations are tried newest first, so a crash mid-commit —
// which can leave the newest generation torn, truncated, or garbage —
// rolls the store back to the previous consistent generation instead of
// failing the open. Unreadable newer generations are removed once an
// older one validates (they are aborted commits, not data). Returns the
// manifest and its generation.
func readManifest(fsys fsfault.FS, dir string) (*manifest, int, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	var gens []int
	for _, e := range entries {
		if gen, ok := parseManifestGen(e.Name()); ok {
			gens = append(gens, gen)
		}
	}
	if len(gens) == 0 {
		// Preserve the classic "no manifest" error shape (fs.ErrNotExist).
		_, err := fsys.ReadFile(filepath.Join(dir, manifestName), nil)
		return nil, 0, err
	}
	sort.Sort(sort.Reverse(sort.IntSlice(gens)))
	var firstErr error
	var rejected []int
	for _, gen := range gens {
		buf, err := fsys.ReadFile(filepath.Join(dir, manifestFileName(gen)), nil)
		if err == nil {
			var man *manifest
			man, err = decodeManifest(buf)
			if err == nil {
				for _, bad := range rejected {
					fsys.Remove(filepath.Join(dir, manifestFileName(bad)))
				}
				return man, gen, nil
			}
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("ooc: manifest generation %d: %w", gen, err)
		}
		rejected = append(rejected, gen)
	}
	return nil, 0, firstErr
}

// Mapper reconstructs the bin mapper recorded in the manifest.
func (m *manifest) mapper() *gbdt.BinMapper {
	return &gbdt.BinMapper{Cuts: m.Cuts, MaxBins: m.MaxBins}
}
