// Package fsfault is the storage-side sibling of internal/fault: a
// deterministic fault-injection layer for the filesystem operations the
// out-of-core store (internal/ooc) and the checkpoint store
// (internal/checkpoint) thread their I/O through. An Injector wraps any
// FS and, on a seeded reproducible schedule, flips bits and truncates
// buffers on the read path, fails or tears writes on the write path,
// exhausts a simulated disk budget (ENOSPC, refunded when files are
// removed so debris sweeps genuinely free space), loses the data of a
// rename whose payload was never synced (a torn write at rename), and
// kills the process model outright after N mutating operations (every
// later call fails with ErrCrashed, leaving temp debris behind exactly
// as a real crash would).
//
// Storage chaos tests assert the same contract the network chaos tests
// established for links: under any injected schedule the storage layers
// either self-heal (retry, quarantine-and-rebuild, generation rollback)
// or fail with a typed error — never a panic — and every recovered run
// reproduces the fault-free model byte for byte.
package fsfault

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// FS is the filesystem surface the storage layers perform their I/O
// through. The method set mirrors the os package; OS is the passthrough
// implementation, Injector the fault-injecting wrapper. Durable writes
// follow the temp-file idiom: CreateTemp, Write, Sync, Close, Rename.
//
// ReadFile reads the whole file into buf's backing array when it has the
// capacity, and into a fresh array otherwise; nil buf always allocates.
// The returned slice may alias buf, so a caller that reuses buf must copy
// out whatever it keeps before the next read into it.
type FS interface {
	ReadFile(name string, buf []byte) ([]byte, error)
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	RemoveAll(path string) error
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(name string) ([]fs.DirEntry, error)
	Stat(name string) (os.FileInfo, error)
}

// File is the writable handle CreateTemp returns.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Name() string
}

// OS is the passthrough FS over the real filesystem.
var OS FS = osFS{}

type osFS struct{}

// ReadFile is os.ReadFile with the caller's buffer: the same read loop,
// sized by Stat, into buf's backing array when it is large enough.
func (osFS) ReadFile(name string, buf []byte) ([]byte, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	// One byte past the size, as os.ReadFile does, so EOF is seen without
	// growing the buffer.
	if size := int(fi.Size()) + 1; cap(buf) < size {
		buf = make([]byte, 0, size)
	}
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)] // the file grew since Stat
		}
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) RemoveAll(path string) error                  { return os.RemoveAll(path) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }

// Injected-fault sentinels. ErrNoSpace wraps syscall.ENOSPC, so recovery
// code written against errors.Is(err, syscall.ENOSPC) handles real disk
// exhaustion and the injected kind identically.
var (
	// ErrInjectedIO is the scheduled EIO of a read or write.
	ErrInjectedIO = errors.New("fsfault: injected I/O error")
	// ErrNoSpace is the simulated disk-full condition.
	ErrNoSpace = fmt.Errorf("fsfault: injected disk full: %w", syscall.ENOSPC)
	// ErrCrashed fails every operation after the scheduled crash point;
	// the wrapped process model is dead until a fresh FS ("reboot").
	ErrCrashed = errors.New("fsfault: simulated crash")
)

// Config is one injector's fault schedule. The zero value injects
// nothing. Probabilities are per-operation; every random decision comes
// from a private rand.Rand seeded by Seed, so equal configs replay equal
// schedules over equal operation sequences.
type Config struct {
	// Seed drives every random decision.
	Seed int64
	// ReadErr is the probability a ReadFile fails with ErrInjectedIO.
	ReadErr float64
	// ShortRead is the probability a ReadFile returns a strict prefix of
	// the file (a torn or truncated read).
	ShortRead float64
	// FlipBit is the probability a ReadFile returns the file with one
	// random bit flipped (media bit rot; the on-disk bytes are intact, so
	// a retry can heal it).
	FlipBit float64
	// WriteErr is the probability a File.Write fails with ErrInjectedIO
	// after persisting nothing.
	WriteErr float64
	// ShortWrite is the probability a File.Write persists only a strict
	// prefix of the buffer while reporting success — the torn write a
	// crash between write and sync leaves behind.
	ShortWrite float64
	// TornRename is the probability a Rename publishes a truncated file:
	// the data blocks never reached disk before the metadata operation
	// (the classic rename-without-fsync anomaly).
	TornRename float64
	// DiskBudget caps total bytes written (0 = unlimited). Writes beyond
	// the budget fail with ErrNoSpace; Remove and RemoveAll refund the
	// bytes of the files they delete, so sweeping debris frees space.
	DiskBudget int64
	// CrashAfter kills the injector after this many mutating operations
	// (writes, syncs, renames, removes, creates; 0 = never): every
	// subsequent operation, reads included, fails with ErrCrashed.
	CrashAfter int
	// NoSync turns Sync into a silent no-op, so a following crash or torn
	// rename models data that never left the page cache.
	NoSync bool
}

// Enabled reports whether the config injects any fault at all.
func (c Config) Enabled() bool {
	return c.ReadErr > 0 || c.ShortRead > 0 || c.FlipBit > 0 || c.WriteErr > 0 ||
		c.ShortWrite > 0 || c.TornRename > 0 || c.DiskBudget > 0 || c.CrashAfter > 0 || c.NoSync
}

// ParseSpec parses the -fschaos knob, comma-separated key=value pairs in
// the same syntax as fault.ParseSpec, e.g.
//
//	"seed=7,readerr=0.05,flip=0.02,shortread=0.02,shortwrite=0.01,tornrename=0.02,enospc=1048576,crash=200,nosync=1"
//
// Keys: seed (int), readerr/shortread/flip/writeerr/shortwrite/tornrename
// (probabilities in [0,1]), enospc (disk budget in bytes), crash (kill
// after N mutating ops), nosync (0/1). Unknown keys are errors so typos
// fail loudly.
func ParseSpec(spec string) (Config, error) {
	var c Config
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return c, nil
	}
	for _, field := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return Config{}, fmt.Errorf("fsfault: spec field %q is not key=value", field)
		}
		var err error
		switch k {
		case "seed":
			c.Seed, err = strconv.ParseInt(v, 10, 64)
		case "readerr":
			c.ReadErr, err = parseProb(v)
		case "shortread":
			c.ShortRead, err = parseProb(v)
		case "flip":
			c.FlipBit, err = parseProb(v)
		case "writeerr":
			c.WriteErr, err = parseProb(v)
		case "shortwrite":
			c.ShortWrite, err = parseProb(v)
		case "tornrename":
			c.TornRename, err = parseProb(v)
		case "enospc":
			c.DiskBudget, err = strconv.ParseInt(v, 10, 64)
		case "crash":
			c.CrashAfter, err = strconv.Atoi(v)
		case "nosync":
			var b bool
			b, err = strconv.ParseBool(v)
			c.NoSync = b
		default:
			return Config{}, fmt.Errorf("fsfault: unknown spec key %q", k)
		}
		if err != nil {
			return Config{}, fmt.Errorf("fsfault: spec key %q: %w", k, err)
		}
	}
	return c, nil
}

func parseProb(v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %g out of [0,1]", p)
	}
	return p, nil
}

// String renders the config in ParseSpec syntax.
func (c Config) String() string {
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	if c.Seed != 0 {
		add("seed", strconv.FormatInt(c.Seed, 10))
	}
	prob := func(k string, p float64) {
		if p > 0 {
			add(k, strconv.FormatFloat(p, 'g', -1, 64))
		}
	}
	prob("readerr", c.ReadErr)
	prob("shortread", c.ShortRead)
	prob("flip", c.FlipBit)
	prob("writeerr", c.WriteErr)
	prob("shortwrite", c.ShortWrite)
	prob("tornrename", c.TornRename)
	if c.DiskBudget > 0 {
		add("enospc", strconv.FormatInt(c.DiskBudget, 10))
	}
	if c.CrashAfter > 0 {
		add("crash", strconv.Itoa(c.CrashAfter))
	}
	if c.NoSync {
		add("nosync", "1")
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// Stats counts the faults an injector actually delivered.
type Stats struct {
	Reads       int64
	ReadErrs    int64
	ShortReads  int64
	FlippedBits int64
	WriteErrs   int64
	ShortWrites int64
	TornRenames int64
	NoSpace     int64
	Crashed     bool
	// BytesUsed is the current simulated disk occupancy (DiskBudget > 0).
	BytesUsed int64
}

// String summarizes the injected faults.
func (s Stats) String() string {
	out := fmt.Sprintf("fsfault: %d reads, %d EIO, %d short reads, %d bit flips, %d write errors, %d torn writes, %d torn renames, %d ENOSPC",
		s.Reads, s.ReadErrs, s.ShortReads, s.FlippedBits, s.WriteErrs, s.ShortWrites, s.TornRenames, s.NoSpace)
	if s.Crashed {
		out += ", crashed"
	}
	return out
}

// Injector wraps an FS with a seeded fault schedule. All scheduling
// decisions serialize on a mutex, so a fixed operation sequence replays a
// fixed schedule regardless of wall-clock timing.
type Injector struct {
	inner FS
	cfg   Config

	mu      sync.Mutex
	rng     *rand.Rand
	mutOps  int
	crashed bool
	stats   Stats
}

// Wrap applies a fault schedule to a filesystem.
func Wrap(inner FS, cfg Config) *Injector {
	if inner == nil {
		inner = OS
	}
	return &Injector{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Stats snapshots the injected-fault counters.
func (j *Injector) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Crashed reports whether the scheduled crash point has been reached.
func (j *Injector) Crashed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.crashed
}

// mutate counts one mutating operation against the crash schedule,
// reporting whether the injector is (now) dead. Caller holds j.mu.
func (j *Injector) mutate() bool {
	if j.crashed {
		return true
	}
	j.mutOps++
	if j.cfg.CrashAfter > 0 && j.mutOps > j.cfg.CrashAfter {
		j.crashed = true
		j.stats.Crashed = true
	}
	return j.crashed
}

// ReadFile reads a file into buf, possibly failing, truncating, or
// corrupting the returned buffer. Corruption happens in the caller's
// buffer only — the on-disk bytes stay intact, which is what makes
// bounded read-retry a sound healing strategy for this fault class.
func (j *Injector) ReadFile(name string, buf []byte) ([]byte, error) {
	j.mu.Lock()
	if j.crashed {
		j.mu.Unlock()
		return nil, ErrCrashed
	}
	j.stats.Reads++
	fail := j.rng.Float64() < j.cfg.ReadErr
	short := j.rng.Float64() < j.cfg.ShortRead
	flip := j.rng.Float64() < j.cfg.FlipBit
	cut := j.rng.Float64() // fraction kept by a short read
	bit := j.rng.Int63()   // bit position source for a flip
	if fail {
		j.stats.ReadErrs++
	} else {
		if short {
			j.stats.ShortReads++
		}
		if flip {
			j.stats.FlippedBits++
		}
	}
	j.mu.Unlock()

	if fail {
		return nil, fmt.Errorf("%w: %s", ErrInjectedIO, name)
	}
	buf, err := j.inner.ReadFile(name, buf)
	if err != nil {
		return nil, err
	}
	if short && len(buf) > 0 {
		buf = buf[:int(cut*float64(len(buf)))]
	}
	if flip && len(buf) > 0 {
		k := int(bit % int64(len(buf)*8))
		buf[k/8] ^= 1 << (k % 8)
	}
	return buf, nil
}

// CreateTemp opens a temp file whose writes ride the injector's schedule.
func (j *Injector) CreateTemp(dir, pattern string) (File, error) {
	j.mu.Lock()
	dead := j.mutate()
	j.mu.Unlock()
	if dead {
		return nil, ErrCrashed
	}
	f, err := j.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{j: j, inner: f}, nil
}

// Rename publishes a file, possibly tearing its contents first.
func (j *Injector) Rename(oldpath, newpath string) error {
	j.mu.Lock()
	dead := j.mutate()
	torn := !dead && j.rng.Float64() < j.cfg.TornRename
	cut := j.rng.Float64()
	if torn {
		j.stats.TornRenames++
	}
	j.mu.Unlock()
	if dead {
		return ErrCrashed
	}
	if torn {
		// The rename itself succeeds — the anomaly is that the file's data
		// blocks never hit disk, so the published name holds a prefix.
		if fi, err := j.inner.Stat(oldpath); err == nil {
			if err := os.Truncate(oldpath, int64(cut*float64(fi.Size()))); err != nil {
				return err
			}
		}
	}
	return j.inner.Rename(oldpath, newpath)
}

// Remove deletes a file, refunding its bytes to the disk budget.
func (j *Injector) Remove(name string) error {
	j.mu.Lock()
	dead := j.mutate()
	j.mu.Unlock()
	if dead {
		return ErrCrashed
	}
	var size int64
	if j.cfg.DiskBudget > 0 {
		if fi, err := j.inner.Stat(name); err == nil {
			size = fi.Size()
		}
	}
	err := j.inner.Remove(name)
	if err == nil && size > 0 {
		j.mu.Lock()
		j.stats.BytesUsed -= size
		if j.stats.BytesUsed < 0 {
			j.stats.BytesUsed = 0
		}
		j.mu.Unlock()
	}
	return err
}

// RemoveAll deletes a tree, refunding its bytes to the disk budget.
func (j *Injector) RemoveAll(path string) error {
	j.mu.Lock()
	dead := j.mutate()
	j.mu.Unlock()
	if dead {
		return ErrCrashed
	}
	var size int64
	if j.cfg.DiskBudget > 0 {
		size = treeSize(j.inner, path)
	}
	err := j.inner.RemoveAll(path)
	if err == nil && size > 0 {
		j.mu.Lock()
		j.stats.BytesUsed -= size
		if j.stats.BytesUsed < 0 {
			j.stats.BytesUsed = 0
		}
		j.mu.Unlock()
	}
	return err
}

func treeSize(f FS, path string) int64 {
	fi, err := f.Stat(path)
	if err != nil {
		return 0
	}
	if !fi.IsDir() {
		return fi.Size()
	}
	entries, err := f.ReadDir(path)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		total += treeSize(f, path+string(os.PathSeparator)+e.Name())
	}
	return total
}

// MkdirAll creates a directory tree.
func (j *Injector) MkdirAll(path string, perm os.FileMode) error {
	j.mu.Lock()
	dead := j.mutate()
	j.mu.Unlock()
	if dead {
		return ErrCrashed
	}
	return j.inner.MkdirAll(path, perm)
}

// ReadDir lists a directory (metadata reads are not faulted — directory
// entries live in the journal, not the data blocks this layer corrupts).
func (j *Injector) ReadDir(name string) ([]fs.DirEntry, error) {
	j.mu.Lock()
	dead := j.crashed
	j.mu.Unlock()
	if dead {
		return nil, ErrCrashed
	}
	return j.inner.ReadDir(name)
}

// Stat returns file metadata.
func (j *Injector) Stat(name string) (os.FileInfo, error) {
	j.mu.Lock()
	dead := j.crashed
	j.mu.Unlock()
	if dead {
		return nil, ErrCrashed
	}
	return j.inner.Stat(name)
}

// faultFile applies the write-path schedule to one temp file.
type faultFile struct {
	j     *Injector
	inner File
}

func (f *faultFile) Name() string { return f.inner.Name() }

// Write persists the buffer, possibly failing, tearing, or exhausting the
// disk budget. A torn write persists a strict prefix but reports full
// success — the caller's Sync+rename then publishes a file whose CRC
// cannot verify, exactly the artifact a crash between write and sync
// leaves behind.
func (f *faultFile) Write(p []byte) (int, error) {
	j := f.j
	j.mu.Lock()
	dead := j.mutate()
	fail := !dead && j.rng.Float64() < j.cfg.WriteErr
	short := !dead && j.rng.Float64() < j.cfg.ShortWrite
	cut := j.rng.Float64()
	noSpace := false
	if !dead && !fail && j.cfg.DiskBudget > 0 {
		if j.stats.BytesUsed+int64(len(p)) > j.cfg.DiskBudget {
			noSpace = true
			j.stats.NoSpace++
		} else {
			j.stats.BytesUsed += int64(len(p))
		}
	}
	if fail {
		j.stats.WriteErrs++
	} else if short && !noSpace {
		j.stats.ShortWrites++
	}
	j.mu.Unlock()

	if dead {
		return 0, ErrCrashed
	}
	if fail {
		return 0, fmt.Errorf("%w: %s", ErrInjectedIO, f.inner.Name())
	}
	if noSpace {
		return 0, fmt.Errorf("%w: %s", ErrNoSpace, f.inner.Name())
	}
	if short && len(p) > 1 {
		n := int(cut * float64(len(p)))
		if _, err := f.inner.Write(p[:n]); err != nil {
			return 0, err
		}
		return len(p), nil // the tear is silent
	}
	return f.inner.Write(p)
}

func (f *faultFile) Sync() error {
	j := f.j
	j.mu.Lock()
	dead := j.mutate()
	noSync := j.cfg.NoSync
	j.mu.Unlock()
	if dead {
		return ErrCrashed
	}
	if noSync {
		return nil
	}
	return f.inner.Sync()
}

func (f *faultFile) Close() error {
	// Closing is not a mutating op for the crash schedule: a dying process
	// has its descriptors closed by the kernel either way.
	return f.inner.Close()
}
