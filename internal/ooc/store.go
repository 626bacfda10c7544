package ooc

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"
	"sync/atomic"

	"vf2boost/internal/fault/fsfault"
	"vf2boost/internal/gbdt"
)

// Options configures a Store's runtime behavior.
type Options struct {
	// MemBudget caps the resident shard bytes. 0 means unlimited. The
	// budget is approximate: a demand-loaded shard is always admitted
	// even when it alone exceeds the budget (one-shard floor — the
	// trainer cannot make progress otherwise), and eviction brings the
	// cache back under budget before the next admit.
	MemBudget int64
	// Prefetch enables shard readahead: the shard-major sweep announces
	// the next shard of its plan (PrefetchShard), and a demand miss on
	// the Row path reads the following shard ahead. Prefetched shards
	// never evict the most recently used resident shard and are skipped
	// entirely when the budget has no room.
	Prefetch bool
	// RetryLoads is how many extra read attempts a failed demand load
	// gets before the store escalates to quarantine-and-rebuild. Retries
	// heal transient faults (EIO, bit rot on the read path) because the
	// on-disk bytes may be intact. 0 means the default of 2; negative
	// disables retries.
	RetryLoads int
	// Source, when set, lets the store rebuild a shard that failed
	// validation beyond retry: the bad file is quarantined and the
	// shard's row range is re-discretized from this source (which must be
	// the replayable source the store was built from). Without it an
	// unrecoverable shard surfaces as a *ShardError.
	Source Source
	// FS is the filesystem the store reads and repairs through; nil means
	// the real one. Tests and the -fschaos CLI knob install a fault
	// injector here.
	FS fsfault.FS
}

func (o *Options) normalize() {
	switch {
	case o.RetryLoads == 0:
		o.RetryLoads = 2
	case o.RetryLoads < 0:
		o.RetryLoads = 0
	}
	if o.FS == nil {
		o.FS = fsfault.OS
	}
}

// Store is a disk-backed gbdt.BinView over a built shard directory: rows
// resolve against an LRU cache of loaded shards kept under Options.
// MemBudget. The read path (Row) is lock-free on cache hits. Misses go
// through a per-shard singleflight: concurrent loads of distinct shards
// run their disk I/O fully in parallel, concurrent loads of the same
// shard coalesce onto one read, and the store mutex is held only for
// bookkeeping (budget reservation, cache install, stats) — never across
// I/O. Budget accounting is reservation-based: a load reserves its
// manifest-estimated footprint before reading (evicting LRU shards to
// make room first) and settles to the exact size on commit, so parallel
// loads cannot overshoot the budget unseen.
//
// The load path self-heals instead of failing stop: a shard that fails
// its CRC or validation is retried (bounded by Options.RetryLoads), then
// quarantined and rebuilt from Options.Source; only when both fail does
// Row surface a *ShardError. A rebuild republishes the shard under a new
// file name and commits a new manifest generation, so a crash anywhere in
// the repair reopens at the previous consistent generation. Rebuilds
// serialize on their own mutex (sources need not support concurrent
// re-scans) without blocking healthy loads of other shards.
type Store struct {
	dir    string
	fs     fsfault.FS
	man    *manifest
	gen    int
	mapper *gbdt.BinMapper
	opt    Options

	data    []atomic.Pointer[shardData]
	flights []atomic.Pointer[flight]
	lastUse []atomic.Int64
	clock   atomic.Int64

	mu       sync.Mutex // guards resident + stats + closed + manifest mutations
	resident int64
	stats    CacheStats
	closed   bool

	repairMu sync.Mutex // serializes quarantine-and-rebuild source re-scans

	prefetching atomic.Bool
	prefetchWG  sync.WaitGroup

	labelsOnce sync.Once
	labels     []float64
	labelsErr  error
}

// flight is one in-progress shard load. Whoever CASes it into
// Store.flights owns the read; everyone else waiting on the same shard
// blocks on done and consumes the result. The owner publishes sd/err
// before closing done.
type flight struct {
	demand bool
	done   chan struct{}
	sd     *shardData
	err    error
}

// CacheStats counts shard-cache activity since Open.
type CacheStats struct {
	// Loads counts demand shard loads (cache misses on the Row path).
	Loads int64
	// Prefetches counts shards loaded by readahead.
	Prefetches int64
	// Evictions counts shards dropped to stay under budget.
	Evictions int64
	// RetriedLoads counts extra read attempts after a failed shard load.
	RetriedLoads int64
	// Quarantined counts shard files renamed out of service after
	// failing validation beyond retry.
	Quarantined int64
	// Rebuilds counts shards re-discretized from the source.
	Rebuilds int64
	// ResidentBytes is the current cached shard footprint.
	ResidentBytes int64
	// PeakBytes is the high-water resident footprint.
	PeakBytes int64
}

// ShardError is the typed failure of an unrecoverable shard: every retry
// failed and the shard could not be rebuilt (no source, or the rebuild
// itself failed). It unwraps to the last load failure.
type ShardError struct {
	Dir      string
	Shard    int
	File     string
	Attempts int
	// Err is the last load failure.
	Err error
	// RebuildErr is why the rebuild could not run or did not succeed.
	RebuildErr error
}

func (e *ShardError) Error() string {
	msg := fmt.Sprintf("ooc: shard %d (%s) unrecoverable after %d attempts: %v",
		e.Shard, filepath.Join(e.Dir, e.File), e.Attempts, e.Err)
	if e.RebuildErr != nil {
		msg += fmt.Sprintf(" (rebuild: %v)", e.RebuildErr)
	}
	return msg
}

func (e *ShardError) Unwrap() error { return e.Err }

// ErrClosed is returned by loads against a closed store.
var ErrClosed = errors.New("ooc: store is closed")

var (
	_ gbdt.BinView         = (*Store)(nil)
	_ gbdt.ShardedView     = (*Store)(nil)
	_ gbdt.ShardPrefetcher = (*Store)(nil)
)

// Open loads a store's newest consistent manifest generation and
// prepares the shard cache; no shard is read until the first Row call.
func Open(dir string, opt Options) (*Store, error) {
	opt.normalize()
	man, gen, err := readManifest(opt.FS, dir)
	if err != nil {
		return nil, err
	}
	return &Store{
		dir:     dir,
		fs:      opt.FS,
		man:     man,
		gen:     gen,
		mapper:  man.mapper(),
		opt:     opt,
		data:    make([]atomic.Pointer[shardData], len(man.Shards)),
		flights: make([]atomic.Pointer[flight], len(man.Shards)),
		lastUse: make([]atomic.Int64, len(man.Shards)),
	}, nil
}

// Rows returns the instance count.
func (s *Store) Rows() int { return s.man.Rows }

// Mapper returns the bin mapper reconstructed from the manifest.
func (s *Store) Mapper() *gbdt.BinMapper { return s.mapper }

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.man.Shards) }

// ShardRowRange returns the half-open row range [lo, hi) of shard k.
func (s *Store) ShardRowRange(k int) (lo, hi int) {
	rec := &s.man.Shards[k]
	return rec.StartRow, rec.StartRow + rec.Rows
}

// Generation returns the manifest generation the store is running on; it
// advances when a shard rebuild commits.
func (s *Store) Generation() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Row returns row i's sorted (columns, bins) pair. The slices alias the
// owning shard's arrays and stay valid after eviction (eviction only
// drops the cache reference). A load failure that survives retry and
// rebuild surfaces as a *ShardError.
func (s *Store) Row(i int) ([]int32, []uint8, error) {
	sd, err := s.visit(i / s.man.ChunkRows)
	if err != nil {
		return nil, nil, err
	}
	return sd.row(i)
}

// visit makes shard k resident and marks it used. The LRU clock ticks
// once per visit, not once per row: a reader staying inside the shard it
// touched last finds its stamp current and writes nothing, so workers
// sweeping one shard share its cache lines read-only. Stamps still order
// the shards by their latest visit, which is all eviction reads.
func (s *Store) visit(k int) (*shardData, error) {
	sd := s.data[k].Load()
	if sd == nil {
		var err error
		if sd, err = s.loadShard(k); err != nil {
			return nil, err
		}
	}
	if s.lastUse[k].Load() != s.clock.Load() {
		s.lastUse[k].Store(s.clock.Add(1))
	}
	return sd, nil
}

// row slices row i (global index, inside the shard) out of the CSR block.
func (sd *shardData) row(i int) ([]int32, []uint8, error) {
	local := i - sd.startRow
	lo, hi := sd.rowPtr[local], sd.rowPtr[local+1]
	return sd.cols[lo:hi], sd.bins[lo:hi], nil
}

// Shard visits shard k once and returns a view pinned to the loaded copy:
// its rows are served without touching the cache again, whatever is
// evicted meanwhile (rows outside k fall through to the store). This is
// what gbdt.SweepShards reads through — one load and one LRU tick per
// shard per pass.
func (s *Store) Shard(k int) (gbdt.BinView, error) {
	sd, err := s.visit(k)
	if err != nil {
		return nil, err
	}
	return pinnedShard{s, sd}, nil
}

// pinnedShard is the view Shard returns.
type pinnedShard struct {
	s  *Store
	sd *shardData
}

func (p pinnedShard) Rows() int               { return p.s.Rows() }
func (p pinnedShard) Mapper() *gbdt.BinMapper { return p.s.mapper }

func (p pinnedShard) Row(i int) ([]int32, []uint8, error) {
	if local := i - p.sd.startRow; local < 0 || local >= len(p.sd.rowPtr)-1 {
		return p.s.Row(i)
	}
	return p.sd.row(i)
}

// Labels reads the store's label vector (active-party stores only).
func (s *Store) Labels() ([]float64, error) {
	s.labelsOnce.Do(func() {
		if !s.man.Labeled {
			s.labelsErr = fmt.Errorf("ooc: store %s holds no labels (passive-party store)", s.dir)
			return
		}
		s.labels, s.labelsErr = readLabels(s.fs, filepath.Join(s.dir, labelsName), s.man.Rows)
	})
	return s.labels, s.labelsErr
}

// Stats snapshots the cache counters.
func (s *Store) Stats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.ResidentBytes = s.resident
	return st
}

// Close marks the store closed, joins the prefetch goroutines and drops
// the shard cache. Subsequent loads fail with ErrClosed; rows already
// handed out stay valid (they alias shard arrays the GC owns). A demand
// load in flight at Close time aborts at its commit point and releases
// its budget reservation. Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	s.prefetchWG.Wait()

	s.mu.Lock()
	for i := range s.data {
		if sd := s.data[i].Load(); sd != nil {
			s.data[i].Store(nil)
			s.resident -= sd.memBytes()
		}
	}
	s.mu.Unlock()
	return nil
}

// loadShard demand-loads shard k through the per-shard singleflight. The
// winner of the flight slot does the read; losers wait for its result.
// A waiter that inherited a failed prefetch flight retries the load as a
// demand (prefetch reads don't self-heal; demand loads must).
func (s *Store) loadShard(k int) (*shardData, error) {
	for {
		if sd := s.data[k].Load(); sd != nil {
			return sd, nil
		}
		f := &flight{demand: true, done: make(chan struct{})}
		if s.flights[k].CompareAndSwap(nil, f) {
			sd, err := s.runFlight(k, f, true)
			if err != nil {
				return nil, err
			}
			// Row-miss readahead: the demand sweep is moving through row
			// space, so read the next shard behind it.
			s.PrefetchShard(k + 1)
			return sd, nil
		}
		cur := s.flights[k].Load()
		if cur == nil {
			continue
		}
		<-cur.done
		if cur.sd != nil {
			return cur.sd, nil
		}
		if cur.demand {
			return nil, cur.err
		}
	}
}

// PrefetchShard asynchronously reads shard k ahead of use. It never
// blocks: the read runs on its own goroutine, at most one readahead is
// in flight at a time, and a shard that is resident, already loading,
// out of range, or unaffordable under the budget is skipped. Prefetch
// reads never evict the most recently used resident shard (the one the
// trainer is sweeping right now) and never trigger self-healing — any
// failure is left for the eventual demand load to repair.
func (s *Store) PrefetchShard(k int) {
	if !s.opt.Prefetch || k < 0 || k >= len(s.data) || s.data[k].Load() != nil {
		return
	}
	if !s.prefetching.CompareAndSwap(false, true) {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.prefetching.Store(false)
		return
	}
	s.prefetchWG.Add(1)
	s.mu.Unlock()
	go s.prefetch(k)
}

func (s *Store) prefetch(k int) {
	defer s.prefetchWG.Done()
	defer s.prefetching.Store(false)
	if s.data[k].Load() != nil {
		return
	}
	f := &flight{done: make(chan struct{})}
	if !s.flights[k].CompareAndSwap(nil, f) {
		return // someone else is already loading it
	}
	s.runFlight(k, f, false)
}

// runFlight performs one shard load owned by flight f: reserve budget
// (evicting to make room), read outside any lock, then commit into the
// cache — or roll the reservation back. The flight slot is cleared and
// its waiters released whichever way it ends.
func (s *Store) runFlight(k int, f *flight, demand bool) (*shardData, error) {
	defer func() {
		s.flights[k].CompareAndSwap(f, nil)
		close(f.done)
	}()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		f.err = ErrClosed
		return nil, ErrClosed
	}
	if sd := s.data[k].Load(); sd != nil {
		s.mu.Unlock()
		f.sd = sd
		return sd, nil
	}
	rec := s.man.Shards[k]
	size := estShardBytes(rec.Rows, rec.NNZ)
	if s.opt.MemBudget > 0 {
		for s.resident+size > s.opt.MemBudget {
			protect := -1
			if !demand {
				// Opportunistic readahead must not evict the shard the
				// trainer is using right now.
				protect = s.mruResident(k)
			}
			if !s.evictLRU(k, protect) {
				if !demand {
					s.mu.Unlock()
					f.err = errNoRoom
					return nil, errNoRoom
				}
				break // one-shard floor: admit over budget
			}
		}
	}
	s.resident += size
	if s.resident > s.stats.PeakBytes {
		s.stats.PeakBytes = s.resident
	}
	s.mu.Unlock()

	var sd *shardData
	var err error
	if demand {
		sd, err = s.readShardHealing(k, rec)
	} else {
		sd, err = s.readShardOnce(rec)
	}

	s.mu.Lock()
	if err == nil && s.closed {
		err = ErrClosed
	}
	if err != nil {
		s.resident -= size
		s.mu.Unlock()
		f.err = err
		return nil, err
	}
	s.resident += sd.memBytes() - size
	if s.resident > s.stats.PeakBytes {
		s.stats.PeakBytes = s.resident
	}
	s.data[k].Store(sd)
	s.lastUse[k].Store(s.clock.Add(1))
	if demand {
		s.stats.Loads++
	} else {
		s.stats.Prefetches++
	}
	s.mu.Unlock()
	f.sd = sd
	return sd, nil
}

// mruResident returns the most recently used resident shard (excluding
// skip), or -1. Caller holds s.mu.
func (s *Store) mruResident(skip int) int {
	best, bestUse := -1, int64(-1)
	for i := range s.data {
		if i == skip || s.data[i].Load() == nil {
			continue
		}
		if use := s.lastUse[i].Load(); use > bestUse {
			best, bestUse = i, use
		}
	}
	return best
}

// readShardOnce reads and cross-checks a shard against its manifest
// record, once. rec is the caller's snapshot of the record (taken under
// s.mu), so concurrent manifest commits for other shards can't tear it.
func (s *Store) readShardOnce(rec shardRecord) (*shardData, error) {
	sd, err := readShard(s.fs, filepath.Join(s.dir, rec.File), s.man.Cols)
	if err != nil {
		return nil, err
	}
	if sd.startRow != rec.StartRow || len(sd.rowPtr)-1 != rec.Rows {
		return nil, fmt.Errorf("ooc: shard %s covers [%d,+%d), manifest says [%d,+%d)",
			rec.File, sd.startRow, len(sd.rowPtr)-1, rec.StartRow, rec.Rows)
	}
	return sd, nil
}

// readShardHealing is the demand-load read with the full healing ladder:
// bounded retry (transient read faults leave the disk bytes intact, so a
// clean re-read often succeeds), then quarantine-and-rebuild from the
// source, then a typed *ShardError. Runs outside s.mu — only stat
// updates take it.
func (s *Store) readShardHealing(k int, rec shardRecord) (*shardData, error) {
	attempts := 1 + s.opt.RetryLoads
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			s.mu.Lock()
			s.stats.RetriedLoads++
			s.mu.Unlock()
		}
		sd, err := s.readShardOnce(rec)
		if err == nil {
			return sd, nil
		}
		lastErr = err
		if errors.Is(err, fs.ErrNotExist) {
			// Retrying a missing file cannot help; go straight to rebuild.
			break
		}
	}
	sd, rbErr := s.rebuildShard(k, rec)
	if rbErr != nil {
		return nil, &ShardError{
			Dir:        s.dir,
			Shard:      k,
			File:       rec.File,
			Attempts:   attempts,
			Err:        lastErr,
			RebuildErr: rbErr,
		}
	}
	return sd, nil
}

// rebuildShard re-derives shard k from the store's source: the bad file
// is quarantined (renamed aside, preserving the evidence), the shard's
// row range is re-read through the build's chunk reader and binned by
// the store's own mapper, verified against the manifest record,
// published under a generation-stamped name and committed by a new
// manifest generation. Every step is re-runnable: a crash at any point
// leaves the previous generation consistent and a reopened store heals
// the same shard again.
//
// Rebuilds serialize on repairMu — a Source need not support concurrent
// scans — and take s.mu only around manifest/stat mutations, so healthy
// loads of other shards keep flowing while a repair runs.
func (s *Store) rebuildShard(k int, rec shardRecord) (*shardData, error) {
	if s.opt.Source == nil {
		return nil, errors.New("no source attached (Options.Source) to rebuild from")
	}
	s.repairMu.Lock()
	defer s.repairMu.Unlock()

	old := filepath.Join(s.dir, rec.File)
	if _, err := s.fs.Stat(old); err == nil {
		if err := s.fs.Rename(old, old+quarantineSuffix); err != nil {
			return nil, fmt.Errorf("quarantining %s: %w", rec.File, err)
		}
		s.mu.Lock()
		s.stats.Quarantined++
		s.mu.Unlock()
	}

	// One chunk as tall as the shard: the reader range-scans the source
	// when it can and otherwise scans it up to the range end. It never
	// refills a range's last chunk, so the binned rows are ours to keep.
	sd := &shardData{rowPtr: []int32{0}}
	r := chunkReader{src: s.opt.Source, height: rec.Rows, mapper: s.mapper}
	if err := r.read(rec.StartRow, rec.StartRow+rec.Rows, func(c *chunk) error {
		rebuilt := c.shardData
		sd = &rebuilt
		return nil
	}); err != nil {
		return nil, fmt.Errorf("rescanning source: %w", err)
	}
	if got := len(sd.rowPtr) - 1; got != rec.Rows || len(sd.cols) != rec.NNZ {
		return nil, fmt.Errorf("source drifted: rebuilt %d rows / %d nnz, manifest says %d / %d",
			got, len(sd.cols), rec.Rows, rec.NNZ)
	}

	gen := s.Generation()
	name := fmt.Sprintf("shard-%06d.g%06d.bin", k, gen+1)
	if err := writeRetryNoSpace(s.fs, s.dir, func() error {
		return writeShard(s.fs, filepath.Join(s.dir, name), sd)
	}); err != nil {
		return nil, fmt.Errorf("writing rebuilt shard: %w", err)
	}
	s.mu.Lock()
	s.man.Shards[k].File = name
	s.mu.Unlock()
	if err := writeRetryNoSpace(s.fs, s.dir, func() error {
		return writeManifest(s.fs, s.dir, s.man, gen+1)
	}); err != nil {
		// Roll the in-memory record back so a later attempt re-derives a
		// consistent state instead of pointing at an uncommitted name.
		s.mu.Lock()
		s.man.Shards[k].File = rec.File
		s.mu.Unlock()
		return nil, fmt.Errorf("committing rebuilt manifest: %w", err)
	}
	s.mu.Lock()
	s.gen++
	s.stats.Rebuilds++
	s.mu.Unlock()
	return sd, nil
}

var errNoRoom = fmt.Errorf("ooc: no cache room without evicting protected shard")

// evictLRU drops the least-recently-used loaded shard, skipping skip1
// and skip2. Returns false when no shard is evictable. Caller holds s.mu.
func (s *Store) evictLRU(skip1, skip2 int) bool {
	victim := -1
	var oldest int64
	for i := range s.data {
		if i == skip1 || i == skip2 || s.data[i].Load() == nil {
			continue
		}
		if use := s.lastUse[i].Load(); victim < 0 || use < oldest {
			victim, oldest = i, use
		}
	}
	if victim < 0 {
		return false
	}
	sd := s.data[victim].Load()
	s.data[victim].Store(nil)
	s.resident -= sd.memBytes()
	s.stats.Evictions++
	return true
}
