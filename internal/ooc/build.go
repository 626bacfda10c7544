package ooc

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
	// FastSketch switches pass 1 to per-chunk sketches merged on a
	// background worker — faster on wide sparse data, but the merged rank
	// bound is εa+εb, so cuts are no longer byte-identical to the
	// in-memory path.
	FastSketch bool
	// Workers > 1 parallelizes the build over row chunks when the source
	// is range-scannable (RangeSource): pass 1 generates chunks
	// concurrently and feeds the cut accumulators in strict row order,
	// pass 2 discretizes chunks concurrently and commits shards through
	// a single ordered writer — manifests, shard files and labels come
	// out byte-identical to a serial build. Non-rangeable sources
	// (LibSVM) fall back to the serial scan. <= 1 builds serially.
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
// Peak memory is the pass-1 accumulators plus one chunk's CSR buffers.
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
	if rs, ok := AsRangeSource(src); ok && opt.Workers > 1 {
		labels, err = buildShardsParallel(fsys, dir, rs, mapper, man, rows, opt)
	} else {
		labels, err = buildShardsSerial(fsys, dir, src, mapper, man, opt)
	}
	if err != nil {
		return err
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

// buildShardsSerial is the single-threaded pass 2: one scan, spilling a
// shard every ChunkRows rows. Returns the accumulated labels (nil for
// unlabeled sources).
func buildShardsSerial(fsys fsfault.FS, dir string, src Source, mapper *gbdt.BinMapper, man *manifest, opt BuildOptions) ([]float64, error) {
	var labels []float64
	if src.Labeled() {
		labels = make([]float64, 0, man.Rows)
	}

	cur := &shardData{rowPtr: []int32{0}}
	flush := func() error {
		if len(cur.rowPtr) == 1 {
			return nil
		}
		name := fmt.Sprintf("shard-%06d.bin", len(man.Shards))
		if err := writeRetryNoSpace(fsys, dir, func() error {
			return writeShard(fsys, filepath.Join(dir, name), cur)
		}); err != nil {
			return err
		}
		man.Shards = append(man.Shards, shardRecord{
			File:     name,
			StartRow: cur.startRow,
			Rows:     len(cur.rowPtr) - 1,
			NNZ:      len(cur.cols),
		})
		next := cur.startRow + len(cur.rowPtr) - 1
		cur = &shardData{startRow: next, rowPtr: cur.rowPtr[:1], cols: cur.cols[:0], bins: cur.bins[:0]}
		cur.rowPtr[0] = 0
		return nil
	}

	err := src.Scan(func(row int, indices []int32, values []float64, label float64) error {
		for k, j := range indices {
			cur.cols = append(cur.cols, j)
			cur.bins = append(cur.bins, uint8(mapper.Bin(int(j), values[k])))
		}
		cur.rowPtr = append(cur.rowPtr, int32(len(cur.cols)))
		if labels != nil {
			labels = append(labels, label)
		}
		if len(cur.rowPtr)-1 >= opt.ChunkRows {
			return flush()
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ooc: discretize pass: %w", err)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return labels, nil
}

// builtChunk is one discretized shard-to-be crossing from a build worker
// to the ordered committer.
type builtChunk struct {
	sd     *shardData
	labels []float64
	err    error
}

// buildShardsParallel is the multi-worker pass 2: chunk [k·ChunkRows,
// (k+1)·ChunkRows) is range-scanned and discretized by whichever worker
// picks it up, and a single committer (the calling goroutine) receives
// chunks in strict index order, writing each shard file and appending
// its records and labels. Chunk boundaries equal the serial flush
// boundaries and shard encoding is deterministic, so the directory is
// byte-identical to a serial build; the single committer also preserves
// the ENOSPC backpressure path's invariant that only one goroutine
// writes (sweepDebris must never race a concurrent temp-file writer).
//
// A bounded ticket window keeps at most Workers+2 chunks materialized
// ahead of the committer. Tickets are acquired before a worker claims
// its chunk index, so in-flight chunks are always the next few the
// committer needs — no deadlock, bounded memory.
func buildShardsParallel(fsys fsfault.FS, dir string, rs RangeSource, mapper *gbdt.BinMapper, man *manifest, rows int, opt BuildOptions) ([]float64, error) {
	if got := rs.Rows(); got != rows {
		return nil, fmt.Errorf("ooc: pass 2 source declares %d rows, pass 1 saw %d (source not replayable?)", got, rows)
	}
	n := (rows + opt.ChunkRows - 1) / opt.ChunkRows
	var labels []float64
	if man.Labeled {
		labels = make([]float64, 0, rows)
	}

	chans := make([]chan *builtChunk, n)
	for i := range chans {
		chans[i] = make(chan *builtChunk, 1)
	}
	window := make(chan struct{}, opt.Workers+2)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				window <- struct{}{}
				i := int(next.Add(1)) - 1
				if i >= n {
					<-window
					return
				}
				if failed.Load() {
					// The committer has already aborted; send an empty
					// marker so it can drain without blocking.
					chans[i] <- &builtChunk{}
					continue
				}
				lo := i * opt.ChunkRows
				chans[i] <- discretizeChunk(rs, mapper, man.Labeled, lo, min(lo+opt.ChunkRows, rows))
			}
		}()
	}

	var err error
	for i := 0; i < n; i++ {
		c := <-chans[i]
		<-window
		if err != nil {
			continue // draining after abort
		}
		if c.err != nil {
			err = c.err
			failed.Store(true)
			continue
		}
		name := fmt.Sprintf("shard-%06d.bin", len(man.Shards))
		if werr := writeRetryNoSpace(fsys, dir, func() error {
			return writeShard(fsys, filepath.Join(dir, name), c.sd)
		}); werr != nil {
			err = werr
			failed.Store(true)
			continue
		}
		man.Shards = append(man.Shards, shardRecord{
			File:     name,
			StartRow: c.sd.startRow,
			Rows:     len(c.sd.rowPtr) - 1,
			NNZ:      len(c.sd.cols),
		})
		labels = append(labels, c.labels...)
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return labels, nil
}

// discretizeChunk range-scans rows [lo, hi) and bins them into one
// shard's CSR arrays.
func discretizeChunk(rs RangeSource, mapper *gbdt.BinMapper, labeled bool, lo, hi int) *builtChunk {
	sd := &shardData{startRow: lo, rowPtr: []int32{0}}
	var labels []float64
	if labeled {
		labels = make([]float64, 0, hi-lo)
	}
	err := rs.ScanRange(lo, hi, func(row int, indices []int32, values []float64, label float64) error {
		for k, j := range indices {
			sd.cols = append(sd.cols, j)
			sd.bins = append(sd.bins, uint8(mapper.Bin(int(j), values[k])))
		}
		sd.rowPtr = append(sd.rowPtr, int32(len(sd.cols)))
		if labels != nil {
			labels = append(labels, label)
		}
		return nil
	})
	if err != nil {
		return &builtChunk{err: fmt.Errorf("ooc: discretize pass: %w", err)}
	}
	if got := len(sd.rowPtr) - 1; got != hi-lo {
		return &builtChunk{err: fmt.Errorf("ooc: range scan [%d,%d) delivered %d rows", lo, hi, got)}
	}
	return &builtChunk{sd: sd, labels: labels}
}

// scanOrdered replays a range source through fn in strict row order
// while producing row chunks concurrently — the sequential-consumer
// side of the build's pass 1, where the cut accumulators' insertion
// order decides the proposed cuts bit for bit. The same ticket-window
// discipline as buildShardsParallel bounds look-ahead memory.
func scanOrdered(rs RangeSource, chunkRows, workers int, fn func(row int, indices []int32, values []float64, label float64) error) error {
	rows := rs.Rows()
	n := (rows + chunkRows - 1) / chunkRows
	chans := make([]chan *rowChunk, n)
	for i := range chans {
		chans[i] = make(chan *rowChunk, 1)
	}
	window := make(chan struct{}, workers+2)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				window <- struct{}{}
				i := int(next.Add(1)) - 1
				if i >= n {
					<-window
					return
				}
				if failed.Load() {
					chans[i] <- &rowChunk{}
					continue
				}
				lo := i * chunkRows
				chans[i] <- materializeChunk(rs, lo, min(lo+chunkRows, rows))
			}
		}()
	}

	var err error
	for i := 0; i < n; i++ {
		c := <-chans[i]
		<-window
		if err != nil {
			continue
		}
		if c.err != nil {
			err = c.err
			failed.Store(true)
			continue
		}
		for r := 0; r+1 < len(c.rowPtr); r++ {
			a, b := c.rowPtr[r], c.rowPtr[r+1]
			if ferr := fn(c.lo+r, c.cols[a:b], c.vals[a:b], c.labels[r]); ferr != nil {
				err = ferr
				failed.Store(true)
				break
			}
		}
	}
	wg.Wait()
	return err
}

// rowChunk is one materialized run of raw rows crossing from a scan
// worker to the ordered consumer.
type rowChunk struct {
	lo     int
	rowPtr []int32
	cols   []int32
	vals   []float64
	labels []float64
	err    error
}

// materializeChunk buffers rows [lo, hi) of the source into CSR form.
func materializeChunk(rs RangeSource, lo, hi int) *rowChunk {
	c := &rowChunk{lo: lo, rowPtr: []int32{0}, labels: make([]float64, 0, hi-lo)}
	err := rs.ScanRange(lo, hi, func(row int, indices []int32, values []float64, label float64) error {
		c.cols = append(c.cols, indices...)
		c.vals = append(c.vals, values...)
		c.rowPtr = append(c.rowPtr, int32(len(c.cols)))
		c.labels = append(c.labels, label)
		return nil
	})
	if err != nil {
		return &rowChunk{err: fmt.Errorf("ooc: range scan [%d,%d): %w", lo, hi, err)}
	}
	if got := len(c.rowPtr) - 1; got != hi-lo {
		return &rowChunk{err: fmt.Errorf("ooc: range scan [%d,%d) delivered %d rows", lo, hi, got)}
	}
	return c
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
