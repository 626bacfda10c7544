package ooc

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vf2boost/internal/dataset"
	"vf2boost/internal/gbdt"
)

// rowOf reads one row of a BinView, failing the test on a view error.
func rowOf(t *testing.T, bv gbdt.BinView, i int) ([]int32, []uint8) {
	t.Helper()
	cols, bins, err := bv.Row(i)
	if err != nil {
		t.Fatal(err)
	}
	return cols, bins
}

func synth(t *testing.T, rows, cols int) *dataset.Dataset {
	t.Helper()
	d, err := dataset.Generate(dataset.GenOptions{Rows: rows, Cols: cols, Density: 0.4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func buildStore(t *testing.T, d *dataset.Dataset, bo BuildOptions, so Options) *Store {
	t.Helper()
	dir := t.TempDir()
	if err := Build(dir, NewDatasetSource(d), bo); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, so)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// The store must reproduce the in-memory binned matrix exactly: same
// cuts, same per-row (column, bin) stream — under any budget.
func TestStoreMatchesBinnedMatrix(t *testing.T) {
	d := synth(t, 500, 12)
	st := buildStore(t, d, BuildOptions{ChunkRows: 64}, Options{MemBudget: 4096})

	mapper, err := gbdt.NewBinMapper(d, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Mapper().Cuts, mapper.Cuts) {
		t.Fatal("store cuts differ from in-memory mapper")
	}
	bm := gbdt.NewBinnedMatrix(d, mapper)
	if st.Rows() != bm.Rows() {
		t.Fatalf("rows %d != %d", st.Rows(), bm.Rows())
	}
	for i := 0; i < st.Rows(); i++ {
		sc, sb := rowOf(t, st, i)
		mc, mb := rowOf(t, bm, i)
		if !reflect.DeepEqual(sc, mc) || !bytes.Equal(sb, mb) {
			t.Fatalf("row %d differs", i)
		}
	}
	labels, err := st.Labels()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(labels, d.Labels) {
		t.Fatal("labels differ")
	}
	if s := st.Stats(); s.Evictions == 0 {
		t.Fatalf("tight budget produced no evictions: %+v", s)
	}
}

// Columns past gbdt's exact-sort threshold (2^15 values) take the
// GK-sketch path in both builders; the cuts must still match bit for bit.
func TestStoreMatchesBinnedMatrixSketchPath(t *testing.T) {
	rows := 1<<15 + 500
	if testing.Short() {
		t.Skip("sketch-path column needs more than 2^15 rows")
	}
	d, err := dataset.Generate(dataset.GenOptions{Rows: rows, Cols: 2, Density: 1, Dense: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	st := buildStore(t, d, BuildOptions{ChunkRows: 8192}, Options{})
	mapper, err := gbdt.NewBinMapper(d, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Mapper().Cuts, mapper.Cuts) {
		t.Fatal("sketch-path cuts differ from in-memory mapper")
	}
}

// The tentpole guarantee: training against the store yields a model
// byte-identical to the fully in-memory path.
func TestModelByteParity(t *testing.T) {
	d := synth(t, 400, 10)
	p := gbdt.DefaultParams()
	p.NumTrees = 5
	p.MaxDepth = 4

	inMem, err := gbdt.Train(d, p)
	if err != nil {
		t.Fatal(err)
	}

	st := buildStore(t, d, BuildOptions{ChunkRows: 64}, Options{MemBudget: 8192, Prefetch: true})
	labels, err := st.Labels()
	if err != nil {
		t.Fatal(err)
	}
	ooc, err := gbdt.TrainBinned(st, labels, nil, p)
	if err != nil {
		t.Fatal(err)
	}

	var a, b bytes.Buffer
	if err := inMem.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := ooc.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("out-of-core model is not byte-identical to in-memory model")
	}
}

// A flipped byte in a shard must fail the CRC and, with no source to
// rebuild from, surface on the Row path as a typed *ShardError naming
// the shard and carrying the CRC detail — never a panic.
func TestShardCorruptionTypedError(t *testing.T) {
	d := synth(t, 200, 6)
	dir := t.TempDir()
	if err := Build(dir, NewDatasetSource(d), BuildOptions{ChunkRows: 64}); err != nil {
		t.Fatal(err)
	}
	name := filepath.Join(dir, "shard-000001.bin")
	buf, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xFF
	if err := os.WriteFile(name, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = st.Row(100) // second shard
	if err == nil {
		t.Fatal("corrupt shard returned no error")
	}
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a *ShardError", err)
	}
	if se.Shard != 1 {
		t.Errorf("ShardError names shard %d, want 1", se.Shard)
	}
	if !strings.Contains(err.Error(), "CRC") {
		t.Errorf("error %v does not carry the CRC detail", err)
	}
	if se.Attempts < 2 {
		t.Errorf("corrupt shard got %d attempts, want the default retry budget", se.Attempts)
	}
	if st.Stats().RetriedLoads == 0 {
		t.Error("retry counter did not move")
	}
}

// The same corruption heals transparently when the store has its build
// source attached: the bad shard is quarantined, rebuilt, committed under
// a new manifest generation, and every row reads back exactly — whether
// or not the source can be range-scanned.
func TestShardCorruptionRebuildsFromSource(t *testing.T) {
	d := synth(t, 200, 6)
	path := filepath.Join(t.TempDir(), "data.libsvm")
	if err := dataset.SaveLibSVMFile(path, d, nil); err != nil {
		t.Fatal(err)
	}
	// LibSVM text round-trips through %g, so the file's rows are the
	// reference for the store built from it.
	fromFile, _, err := dataset.LoadLibSVMFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		d    *dataset.Dataset
		src  func(t *testing.T) Source
	}{
		// A range-scannable source rebuilds the shard by a range scan.
		{"dataset", d, func(*testing.T) Source { return NewDatasetSource(d) }},
		// A LibSVM file cannot be range-scanned: the rebuild scans it
		// from the start and stops at the shard's last row.
		{"libsvm", fromFile, func(t *testing.T) Source {
			src, err := NewLibSVMSource(path, 0)
			if err != nil {
				t.Fatal(err)
			}
			return src
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testShardRebuild(t, tc.d, tc.src(t))
		})
	}
}

// testShardRebuild corrupts the middle shard of a store built from src
// and checks that the store heals it from src to d's binned rows.
func testShardRebuild(t *testing.T, d *dataset.Dataset, src Source) {
	dir := t.TempDir()
	if err := Build(dir, src, BuildOptions{ChunkRows: 64}); err != nil {
		t.Fatal(err)
	}
	name := filepath.Join(dir, "shard-000001.bin")
	buf, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xFF
	if err := os.WriteFile(name, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := gbdt.NewBinMapper(d, 20)
	if err != nil {
		t.Fatal(err)
	}
	bm := gbdt.NewBinnedMatrix(d, mapper)
	for i := 0; i < st.Rows(); i++ {
		sc, sb := rowOf(t, st, i)
		mc, mb := rowOf(t, bm, i)
		if !reflect.DeepEqual(sc, mc) || !bytes.Equal(sb, mb) {
			t.Fatalf("row %d differs after rebuild", i)
		}
	}
	s := st.Stats()
	if s.Rebuilds != 1 || s.Quarantined != 1 {
		t.Fatalf("rebuilds=%d quarantined=%d, want 1/1", s.Rebuilds, s.Quarantined)
	}
	if st.Generation() != 1 {
		t.Fatalf("generation %d after rebuild, want 1", st.Generation())
	}
	if _, err := os.Stat(name + quarantineSuffix); err != nil {
		t.Fatalf("quarantined shard evidence missing: %v", err)
	}

	// The committed generation must survive a reopen without the source.
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Generation() != 1 {
		t.Fatalf("reopened at generation %d, want 1", st2.Generation())
	}
	sc, sb := rowOf(t, st2, 100)
	mc, mb := rowOf(t, bm, 100)
	if !reflect.DeepEqual(sc, mc) || !bytes.Equal(sb, mb) {
		t.Fatal("rebuilt shard differs on reopen")
	}
}

// Without a manifest the directory is not a store (the manifest is the
// build's commit point).
func TestMissingManifest(t *testing.T) {
	d := synth(t, 50, 4)
	dir := t.TempDir()
	if err := Build(dir, NewDatasetSource(d), BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open succeeded without manifest")
	}
}

// A ColumnSlice store must equal the store built from the materialized
// vertical split — the streaming form of per-party store construction.
func TestColumnSliceMatchesVerticalSplit(t *testing.T) {
	d := synth(t, 300, 10)
	parts, err := d.VerticalSplit([]int{6, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}

	src := NewDatasetSource(d)
	slice, err := NewColumnSlice(src, 0, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Build(dir, slice, BuildOptions{ChunkRows: 64}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Labels(); err == nil {
		t.Fatal("passive-party store returned labels")
	}

	mapper, err := gbdt.NewBinMapper(parts[0], 20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Mapper().Cuts, mapper.Cuts) {
		t.Fatal("sliced store cuts differ from split-dataset mapper")
	}
	bm := gbdt.NewBinnedMatrix(parts[0], mapper)
	for i := 0; i < st.Rows(); i++ {
		sc, sb := rowOf(t, st, i)
		mc, mb := rowOf(t, bm, i)
		if !reflect.DeepEqual(sc, mc) || !bytes.Equal(sb, mb) {
			t.Fatalf("row %d differs", i)
		}
	}
}

// A store built from a LibSVM file must match the one built from the
// dataset that wrote it.
func TestLibSVMSourceRoundTrip(t *testing.T) {
	d := synth(t, 150, 8)
	path := filepath.Join(t.TempDir(), "data.libsvm")
	if err := dataset.SaveLibSVMFile(path, d, nil); err != nil {
		t.Fatal(err)
	}
	src, err := NewLibSVMSource(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if src.Cols() != d.Cols() {
		t.Fatalf("inferred %d cols, want %d", src.Cols(), d.Cols())
	}
	dir := t.TempDir()
	if err := Build(dir, src, BuildOptions{ChunkRows: 32}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// LibSVM text round-trips through %g, so re-read the file rather than
	// comparing against the original float values.
	d2, _, err := dataset.LoadLibSVMFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := gbdt.NewBinMapper(d2, 20)
	if err != nil {
		t.Fatal(err)
	}
	bm := gbdt.NewBinnedMatrix(d2, mapper)
	for i := 0; i < st.Rows(); i++ {
		sc, sb := rowOf(t, st, i)
		mc, mb := rowOf(t, bm, i)
		if !reflect.DeepEqual(sc, mc) || !bytes.Equal(sb, mb) {
			t.Fatalf("row %d differs", i)
		}
	}
	labels, err := st.Labels()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(labels, d2.Labels) {
		t.Fatal("labels differ")
	}
}

// Sequential access at shallow depth should trigger readahead.
func TestPrefetch(t *testing.T) {
	d := synth(t, 512, 6)
	st := buildStore(t, d, BuildOptions{ChunkRows: 64}, Options{MemBudget: 1 << 20, Prefetch: true})
	for i := 0; i < st.Rows(); i++ {
		st.Row(i)
	}
	// The prefetch goroutine is asynchronous; loads+prefetches must cover
	// all shards, and at least one shard should have come from readahead.
	s := st.Stats()
	if s.Loads+s.Prefetches < int64(st.NumShards()) {
		t.Fatalf("loaded %d+%d shards, want %d", s.Loads, s.Prefetches, st.NumShards())
	}
}
