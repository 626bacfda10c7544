package ooc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"vf2boost/internal/checkpoint"
	"vf2boost/internal/dataset"
	"vf2boost/internal/fault/fsfault"
	"vf2boost/internal/gbdt"
)

// slowFS delays every ReadFile so a test can catch the prefetch
// goroutine in flight, and counts in-flight reads so Close can be shown
// to have joined them.
type slowFS struct {
	fsfault.FS
	delay  time.Duration
	active atomic.Int32
}

func (s *slowFS) ReadFile(name string, buf []byte) ([]byte, error) {
	s.active.Add(1)
	defer s.active.Add(-1)
	time.Sleep(s.delay)
	return s.FS.ReadFile(name, buf)
}

// Close must join the prefetch goroutine — no reads in flight once it
// returns, no goroutine left behind — and every later load must fail
// with ErrClosed instead of touching the disk.
func TestStoreCloseJoinsPrefetch(t *testing.T) {
	d := synth(t, 600, 8)
	dir := t.TempDir()
	if err := Build(dir, NewDatasetSource(d), BuildOptions{ChunkRows: 64}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	sfs := &slowFS{FS: fsfault.OS, delay: 20 * time.Millisecond}
	st, err := Open(dir, Options{Prefetch: true, FS: sfs})
	if err != nil {
		t.Fatal(err)
	}
	// The demand load of shard 0 kicks readahead of shard 1; Close lands
	// while that read is still sleeping in slowFS.
	if _, _, err := st.Row(0); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n := sfs.active.Load(); n != 0 {
		t.Fatalf("%d reads still in flight after Close", n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("%d goroutines before Open, %d after Close — prefetch leaked", before, g)
	}
	if _, _, err := st.Row(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Row after Close returned %v, want ErrClosed", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close returned %v, want idempotent nil", err)
	}
}

// A torn newer manifest generation (the debris of a crash mid-commit)
// must roll the open back to the previous consistent generation and
// sweep the aborted commit record away.
func TestManifestGenerationRollback(t *testing.T) {
	d := synth(t, 200, 6)
	dir := t.TempDir()
	if err := Build(dir, NewDatasetSource(d), BuildOptions{ChunkRows: 64}); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, manifestFileName(1))
	if err := os.WriteFile(torn, []byte(`{"version":1,"rows":`), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open did not roll back past the torn generation: %v", err)
	}
	if st.Generation() != 0 {
		t.Fatalf("opened at generation %d, want rollback to 0", st.Generation())
	}
	if st.Rows() != 200 {
		t.Fatalf("rolled-back store has %d rows, want 200", st.Rows())
	}
	rowOf(t, st, 0)
	if _, err := os.Stat(torn); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("aborted commit record still present after rollback: %v", err)
	}
}

// Hostile manifest bytes — truncations, garbage, internally inconsistent
// records — must fail Open with an error, never a panic.
func TestManifestHostileBytes(t *testing.T) {
	d := synth(t, 150, 5)
	base := t.TempDir()
	if err := Build(base, NewDatasetSource(d), BuildOptions{ChunkRows: 64}); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(base, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(m *manifest)) []byte {
		m, err := decodeManifest(valid)
		if err != nil {
			t.Fatal(err)
		}
		f(m)
		var buf bytes.Buffer
		if err := writeManifest(writeCapture{&buf}, "", m, 0); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"garbage", []byte("\x00\x01\x02 not json at all \xff")},
		{"truncated", valid[:len(valid)/2]},
		{"wrong-version", mutate(func(m *manifest) { m.Version = 99 })},
		{"rows-mismatch", mutate(func(m *manifest) { m.Rows++ })},
		{"shard-gap", mutate(func(m *manifest) { m.Shards[1].StartRow++ })},
		{"zero-row-shard", mutate(func(m *manifest) { m.Shards[0].Rows = 0 })},
		{"cuts-count", mutate(func(m *manifest) { m.Cuts = m.Cuts[:1] })},
		{"no-chunk", mutate(func(m *manifest) { m.ChunkRows = 0 })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, manifestName), tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir, Options{}); err == nil {
				t.Fatal("Open accepted a hostile manifest")
			}
		})
	}
}

// writeCapture adapts writeManifest's FS parameter to an in-memory
// buffer so the hostility table can re-encode mutated manifests.
type writeCapture struct{ buf *bytes.Buffer }

func (w writeCapture) ReadFile(string, []byte) ([]byte, error) { return nil, os.ErrNotExist }
func (w writeCapture) CreateTemp(string, string) (fsfault.File, error) {
	return captureFile{w.buf}, nil
}
func (w writeCapture) Rename(string, string) error           { return nil }
func (w writeCapture) Remove(string) error                   { return nil }
func (w writeCapture) RemoveAll(string) error                { return nil }
func (w writeCapture) MkdirAll(string, os.FileMode) error    { return nil }
func (w writeCapture) ReadDir(string) ([]os.DirEntry, error) { return nil, nil }
func (w writeCapture) Stat(string) (os.FileInfo, error)      { return nil, os.ErrNotExist }

type captureFile struct{ buf *bytes.Buffer }

func (f captureFile) Write(p []byte) (int, error) { return f.buf.Write(p) }
func (f captureFile) Sync() error                 { return nil }
func (f captureFile) Close() error                { return nil }
func (f captureFile) Name() string                { return "capture" }

// Hostile shard bytes — truncations, bad magic, lying length fields —
// must surface on the Row path as a typed error, never a panic.
func TestShardHeaderHostileBytes(t *testing.T) {
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"truncated-header", func(b []byte) []byte { return b[:5] }},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"length-overrun", func(b []byte) []byte {
			b[12] ^= 0xFF // lie about the body length
			return b
		}},
		{"body-cut", func(b []byte) []byte { return b[:len(b)-7] }},
		{"header-only", func(b []byte) []byte { return b[:frameHeader] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := synth(t, 150, 5)
			dir := t.TempDir()
			if err := Build(dir, NewDatasetSource(d), BuildOptions{ChunkRows: 64}); err != nil {
				t.Fatal(err)
			}
			name := filepath.Join(dir, "shard-000000.bin")
			buf, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(name, tc.mutate(buf), 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Open(dir, Options{RetryLoads: -1})
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = st.Row(0)
			if err == nil {
				t.Fatal("hostile shard bytes returned no error")
			}
			var se *ShardError
			if !errors.As(err, &se) {
				t.Fatalf("error %v is not a *ShardError", err)
			}
		})
	}
}

// A write that hits the disk-full wall must sweep reclaimable debris
// (aborted temp files, quarantined shards) and retry before giving up.
func TestWriteRetryNoSpaceSweepsDebris(t *testing.T) {
	dir := t.TempDir()
	// Debris: an aborted-write temp file and a quarantined shard. Neither
	// was charged to the injector's budget, but removing them refunds it.
	if err := os.WriteFile(filepath.Join(dir, ".ooc-debris"), make([]byte, 2048), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "shard-000009.bin.bad"), make([]byte, 2048), 0o644); err != nil {
		t.Fatal(err)
	}
	inj := fsfault.Wrap(nil, fsfault.Config{DiskBudget: 1024})
	payload := make([]byte, 700)
	write := func(name string) error {
		return writeRetryNoSpace(inj, dir, func() error {
			return writeAtomic(inj, filepath.Join(dir, name), payload)
		})
	}
	if err := write("a.bin"); err != nil {
		t.Fatalf("first write within budget failed: %v", err)
	}
	// The second write exceeds the 1 KiB budget; the sweep frees the
	// debris (refunding its bytes) and the retry must succeed.
	if err := write("b.bin"); err != nil {
		t.Fatalf("write after debris sweep failed: %v", err)
	}
	for _, debris := range []string{".ooc-debris", "shard-000009.bin.bad"} {
		if _, err := os.Stat(filepath.Join(dir, debris)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("debris %s survived the sweep", debris)
		}
	}
	// With nothing left to sweep, a third over-budget write propagates
	// the typed disk-full error.
	inj2 := fsfault.Wrap(nil, fsfault.Config{DiskBudget: 256})
	err := writeRetryNoSpace(inj2, dir, func() error {
		return writeAtomic(inj2, filepath.Join(dir, "c.bin"), payload)
	})
	if !errors.Is(err, fsfault.ErrNoSpace) {
		t.Fatalf("exhausted disk returned %v, want ErrNoSpace", err)
	}
}

// FuzzOpenHostileStore feeds arbitrary bytes as the manifest and as the
// first shard of an otherwise valid store: Open and Row may fail, but
// must never panic.
func FuzzOpenHostileStore(f *testing.F) {
	d, err := dataset.Generate(dataset.GenOptions{Rows: 80, Cols: 4, Density: 0.5, Seed: 7})
	if err != nil {
		f.Fatal(err)
	}
	base := f.TempDir()
	if err := Build(base, NewDatasetSource(d), BuildOptions{ChunkRows: 32}); err != nil {
		f.Fatal(err)
	}
	validManifest, err := os.ReadFile(filepath.Join(base, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	validShard, err := os.ReadFile(filepath.Join(base, "shard-000000.bin"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(validManifest)
	f.Add(validShard)
	f.Add([]byte{})
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte("VF2OOCS1garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary manifest bytes in a fresh directory.
		mdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(mdir, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if st, err := Open(mdir, Options{RetryLoads: -1}); err == nil {
			st.Row(0)
			st.Close()
		}

		// Arbitrary bytes as shard 0 of a valid store.
		sdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(sdir, manifestName), validManifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sdir, "shard-000000.bin"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if st, err := Open(sdir, Options{RetryLoads: -1}); err == nil {
			st.Row(0)
			st.Close()
		}
	})
}

// chaosSnapshot is the checkpoint body used by the soak's crash leg.
type chaosSnapshot struct {
	Round int       `json:"round"`
	State []float64 `json:"state"`
}

// TestStorageChaosSoak is the capstone of the storage fault model: a
// seeded sweep of kill-and-corrupt scenarios across the build, train,
// and checkpoint paths. Every scenario must either self-heal or fail
// with a typed error — never panic — and every recovered run must train
// to the byte-identical model of the fault-free baseline.
func TestStorageChaosSoak(t *testing.T) {
	scenarios := 200
	if testing.Short() {
		scenarios = 30
	}

	d := synth(t, 300, 8)
	p := gbdt.DefaultParams()
	p.NumTrees = 3
	p.MaxDepth = 3

	// Fault-free baseline, computed once.
	baseDir := t.TempDir()
	if err := Build(baseDir, NewDatasetSource(d), BuildOptions{ChunkRows: 64}); err != nil {
		t.Fatal(err)
	}
	baseline := trainStoreBytes(t, baseDir, d, p, nil)

	for i := 0; i < scenarios; i++ {
		i := i
		t.Run(fmt.Sprintf("scenario-%03d", i), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + i)))
			switch i % 4 {
			case 0:
				soakFaultyBuild(t, d, p, baseline, rng)
			case 1:
				soakCorruptThenHeal(t, d, p, baseline, rng)
			case 2:
				soakCheckpointCrash(t, rng)
			case 3:
				soakUnrecoverableTyped(t, d, rng)
			}
		})
	}
}

// trainStoreBytes opens dir (optionally with a rebuild source) and
// trains, returning the serialized model.
func trainStoreBytes(t *testing.T, dir string, d *dataset.Dataset, p gbdt.Params, src Source) []byte {
	t.Helper()
	st, err := Open(dir, Options{Source: src, MemBudget: 16 << 10, Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	labels, err := st.Labels()
	if err != nil {
		t.Fatal(err)
	}
	m, err := gbdt.TrainBinned(st, labels, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// soakFaultyBuild builds under write faults and a scheduled crash, then
// "reboots" with a clean filesystem: if the commit point survived, the
// store must self-heal any torn shards from the source; otherwise the
// directory is an aborted build and a clean rebuild must succeed. Either
// way the trained model must match the baseline byte for byte.
func soakFaultyBuild(t *testing.T, d *dataset.Dataset, p gbdt.Params, baseline []byte, rng *rand.Rand) {
	dir := t.TempDir()
	cfg := fsfault.Config{
		Seed:       rng.Int63(),
		CrashAfter: 1 + rng.Intn(60),
	}
	if rng.Float64() < 0.5 {
		cfg.ShortWrite = 0.2 * rng.Float64()
	}
	if rng.Float64() < 0.5 {
		cfg.TornRename = 0.3 * rng.Float64()
	}
	if rng.Float64() < 0.3 {
		cfg.WriteErr = 0.2 * rng.Float64()
	}
	src := NewDatasetSource(d)
	if err := Build(dir, src, BuildOptions{ChunkRows: 64, FS: fsfault.Wrap(nil, cfg)}); err != nil {
		t.Logf("faulty build failed as scheduled: %v", err)
	}

	// Reboot: the injector is gone, the directory is whatever the crash
	// left. A committed manifest means the store opens and heals; no
	// readable manifest means the commit never landed (a crashed build,
	// or a torn rename that reported success without persisting) and the
	// build reruns cleanly in place.
	if _, _, err := readManifest(fsfault.OS, dir); err != nil {
		if err := Build(dir, src, BuildOptions{ChunkRows: 64}); err != nil {
			t.Fatalf("clean rebuild after crashed build failed: %v", err)
		}
	}
	st, err := Open(dir, Options{Source: src})
	if err != nil {
		t.Fatalf("reopen after faulty build failed: %v", err)
	}
	// Labels are not shard-framed per row, so a torn labels file cannot
	// be healed shard-wise — it reads as a typed error and the scenario
	// rebuilds cleanly (the CLI path would fail loudly the same way).
	if _, err := st.Labels(); err != nil {
		st.Close()
		dir = t.TempDir()
		if err := Build(dir, src, BuildOptions{ChunkRows: 64}); err != nil {
			t.Fatalf("clean rebuild after torn labels failed: %v", err)
		}
	} else {
		st.Close()
	}
	if got := trainStoreBytes(t, dir, d, p, src); !bytes.Equal(got, baseline) {
		t.Fatal("model after faulty build + recovery differs from baseline")
	}
}

// soakCorruptThenHeal corrupts a random shard of a clean store — flip,
// truncate, or delete — and requires the source-attached open to heal it
// back to the byte-identical model.
func soakCorruptThenHeal(t *testing.T, d *dataset.Dataset, p gbdt.Params, baseline []byte, rng *rand.Rand) {
	dir := t.TempDir()
	src := NewDatasetSource(d)
	if err := Build(dir, src, BuildOptions{ChunkRows: 64}); err != nil {
		t.Fatal(err)
	}
	shards, err := filepath.Glob(filepath.Join(dir, "shard-*.bin"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no shards to corrupt: %v", err)
	}
	victim := shards[rng.Intn(len(shards))]
	switch rng.Intn(3) {
	case 0: // bit rot
		buf, err := os.ReadFile(victim)
		if err != nil {
			t.Fatal(err)
		}
		buf[rng.Intn(len(buf))] ^= 1 << uint(rng.Intn(8))
		if err := os.WriteFile(victim, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	case 1: // torn write
		buf, err := os.ReadFile(victim)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(victim, buf[:rng.Intn(len(buf))], 0o644); err != nil {
			t.Fatal(err)
		}
	case 2: // lost file
		if err := os.Remove(victim); err != nil {
			t.Fatal(err)
		}
	}
	if got := trainStoreBytes(t, dir, d, p, src); !bytes.Equal(got, baseline) {
		t.Fatal("model after shard corruption + self-heal differs from baseline")
	}
}

// soakCheckpointCrash saves snapshots through an injector that tears
// renames, shorts writes, and crashes mid-sequence, then reboots with a
// clean filesystem: LoadLatest must return a fully valid snapshot whose
// body matches its sequence number, and must leave no temp debris.
func soakCheckpointCrash(t *testing.T, rng *rand.Rand) {
	dir := t.TempDir()
	cfg := fsfault.Config{
		Seed:       rng.Int63(),
		CrashAfter: 1 + rng.Intn(30),
		TornRename: 0.4 * rng.Float64(),
		ShortWrite: 0.4 * rng.Float64(),
		NoSync:     rng.Float64() < 0.5,
	}
	cs, err := checkpoint.OpenFS(dir, fsfault.Wrap(nil, cfg))
	if err != nil {
		// MkdirAll is a mutating op: a tiny CrashAfter can kill the store
		// before it opens. A reboot then finds no snapshots — fine.
		cs = nil
	}
	saved := 0
	if cs != nil {
		for round := 1; round <= 8; round++ {
			snap := chaosSnapshot{Round: round, State: []float64{float64(round), 0.5}}
			if err := cs.Save(round, snap); err != nil {
				break
			}
			saved = round
		}
	}

	// Reboot with a clean filesystem.
	clean, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatalf("reopen after checkpoint crash failed: %v", err)
	}
	var got chaosSnapshot
	seq, err := clean.LoadLatest(&got)
	if err != nil {
		t.Fatalf("LoadLatest after crash failed: %v", err)
	}
	if seq > saved {
		t.Fatalf("recovered sequence %d beyond last acknowledged save %d", seq, saved)
	}
	if seq > 0 && got.Round != seq {
		t.Fatalf("snapshot %d decodes round %d — torn snapshot passed validation", seq, got.Round)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if len(e.Name()) >= 5 && e.Name()[:5] == ".tmp-" {
			t.Errorf("temp debris %s survived recovery", e.Name())
		}
	}
}

// soakUnrecoverableTyped corrupts a shard of a store with no rebuild
// source: the failure must surface as a typed *ShardError through the
// Row path — never a panic, never a wrong row.
func soakUnrecoverableTyped(t *testing.T, d *dataset.Dataset, rng *rand.Rand) {
	dir := t.TempDir()
	if err := Build(dir, NewDatasetSource(d), BuildOptions{ChunkRows: 64}); err != nil {
		t.Fatal(err)
	}
	shards, err := filepath.Glob(filepath.Join(dir, "shard-*.bin"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no shards to corrupt: %v", err)
	}
	k := rng.Intn(len(shards))
	buf, err := os.ReadFile(shards[k])
	if err != nil {
		t.Fatal(err)
	}
	buf[frameHeader+rng.Intn(len(buf)-frameHeader)] ^= 1 << uint(rng.Intn(8))
	if err := os.WriteFile(shards[k], buf, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{RetryLoads: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var sawTyped bool
	for i := 0; i < st.Rows(); i++ {
		_, _, err := st.Row(i)
		if err != nil {
			var se *ShardError
			if !errors.As(err, &se) {
				t.Fatalf("row %d error %v is not a *ShardError", i, err)
			}
			if se.Shard != k {
				t.Fatalf("ShardError names shard %d, corrupted %d", se.Shard, k)
			}
			sawTyped = true
		}
	}
	if !sawTyped {
		t.Fatal("corrupted shard never surfaced an error")
	}
}
