package ooc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vf2boost/internal/dataset"
	"vf2boost/internal/fault/fsfault"
	"vf2boost/internal/gbdt"
)

// gateFS blocks ReadFile calls whose path contains gate until release is
// closed, and signals arrival on blocked (once). All other reads pass
// through untouched.
type gateFS struct {
	fsfault.FS
	gate    string
	blocked chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gateFS) ReadFile(name string, buf []byte) ([]byte, error) {
	if strings.Contains(name, g.gate) {
		g.once.Do(func() { close(g.blocked) })
		<-g.release
	}
	return g.FS.ReadFile(name, buf)
}

// The regression this package shipped with: loadShard held the store
// mutex across disk I/O, so a slow prefetch of one shard serialized
// every other load behind it. A demand load of a DIFFERENT shard must
// complete while a prefetch read is still stuck on disk.
func TestSlowPrefetchDoesNotBlockDemandLoad(t *testing.T) {
	d := synth(t, 600, 8)
	dir := t.TempDir()
	if err := Build(dir, NewDatasetSource(d), BuildOptions{ChunkRows: 64}); err != nil {
		t.Fatal(err)
	}
	gfs := &gateFS{
		FS:      fsfault.OS,
		gate:    "shard-000001",
		blocked: make(chan struct{}),
		release: make(chan struct{}),
	}
	st, err := Open(dir, Options{Prefetch: true, FS: gfs})
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 demand-loads shard 0 and kicks readahead of shard 1, which
	// parks inside gateFS still holding its flight slot.
	if _, _, err := st.Row(0); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gfs.blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("prefetch of shard 1 never reached the filesystem")
	}

	// With the prefetch wedged, a demand load of shard 3 must not queue
	// behind it.
	done := make(chan error, 1)
	go func() {
		_, _, err := st.Row(3 * 64)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("demand load failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("demand load of shard 3 blocked behind a slow prefetch of shard 1")
	}

	close(gfs.release)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// Concurrent readers, readahead hints, depth hints, and a Close racing
// them: every error must be nil or ErrClosed, and nothing may deadlock
// or trip the race detector.
func TestConcurrentRowPrefetchCloseRace(t *testing.T) {
	d := synth(t, 800, 8)
	dir := t.TempDir()
	if err := Build(dir, NewDatasetSource(d), BuildOptions{ChunkRows: 64}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{MemBudget: 8 << 10, Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				switch rng.Intn(3) {
				case 0:
					if _, _, err := st.Row(rng.Intn(st.Rows())); err != nil && !errors.Is(err, ErrClosed) {
						t.Errorf("Row: %v", err)
						return
					}
				case 1:
					st.PrefetchShard(rng.Intn(st.NumShards()+2) - 1)
				case 2:
					st.Stats()
				}
			}
		}(int64(w))
	}
	time.Sleep(10 * time.Millisecond)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// The LRU clock ticks once per shard visit instead of once per row; what
// eviction does with the stamps must not have moved. Against a model of the
// per-row policy (a shard's stamp is the time of its latest read), a random
// interleaving of row reads, pinned-shard reads and revisits must leave the
// same shards resident after every step — and rows read through a pinned
// shard must cost no load even once the cache has dropped it.
func TestEvictionOrderAfterInterleavedVisits(t *testing.T) {
	d := synth(t, 640, 8)
	dir := t.TempDir()
	if err := Build(dir, NewDatasetSource(d), BuildOptions{ChunkRows: 64}); err != nil {
		t.Fatal(err)
	}
	probe, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	size := make([]int64, probe.NumShards())
	var budget int64
	for k, rec := range probe.man.Shards {
		size[k] = estShardBytes(rec.Rows, rec.NNZ)
		if k < 3 {
			budget += size[k]
		}
	}
	probe.Close()
	st, err := Open(dir, Options{MemBudget: budget + 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var lru []int // resident shards, least recently read first
	touch := func(k int) {
		for i, r := range lru {
			if r == k {
				lru = append(append(lru[:i:i], lru[i+1:]...), k)
				return
			}
		}
		used := int64(0)
		for _, r := range lru {
			used += size[r]
		}
		for len(lru) > 0 && used+size[k] > budget+64 {
			used -= size[lru[0]]
			lru = lru[1:]
		}
		lru = append(lru, k)
	}
	rng := rand.New(rand.NewSource(5))
	var pinned gbdt.BinView
	pinnedShard := -1
	for step := 0; step < 400; step++ {
		k := rng.Intn(st.NumShards())
		lo, hi := st.ShardRowRange(k)
		switch rng.Intn(3) {
		case 0: // a run of plain row reads
			for n := 1 + rng.Intn(40); n > 0; n-- {
				if _, _, err := st.Row(lo + rng.Intn(hi-lo)); err != nil {
					t.Fatal(err)
				}
			}
			touch(k)
		case 1: // a pass pins the shard, then reads through the pin
			if pinned, err = st.Shard(k); err != nil {
				t.Fatal(err)
			}
			pinnedShard = k
			touch(k)
		case 2: // reads through an old pin: no visit, no load, same rows
			if pinnedShard < 0 {
				continue
			}
			before := st.Stats().Loads
			plo, phi := st.ShardRowRange(pinnedShard)
			i := plo + rng.Intn(phi-plo)
			cols, bins, err := pinned.Row(i)
			if err != nil {
				t.Fatal(err)
			}
			if st.Stats().Loads != before {
				t.Fatalf("step %d: a pinned read of shard %d loaded a shard", step, pinnedShard)
			}
			wantCols, wantBins, err := st.Row(i)
			if err != nil {
				t.Fatal(err)
			}
			touch(pinnedShard)
			if !bytes.Equal(bins, wantBins) || len(cols) != len(wantCols) {
				t.Fatalf("step %d: pinned row %d differs from the store's", step, i)
			}
		}
		want := map[int]bool{}
		for _, r := range lru {
			want[r] = true
		}
		for r := range size {
			if got := st.data[r].Load() != nil; got != want[r] {
				t.Fatalf("step %d: shard %d resident=%v, the per-row LRU model says %v (model order %v)", step, r, got, want[r], lru)
			}
		}
	}
	if st.Stats().Evictions == 0 {
		t.Fatal("the budget never forced an eviction")
	}
}

// The read-amplification bound of the trainer's one sweep per layer:
// training at ANY budget demand-loads each shard at most depth+1 times
// per tree (one sweep per level plus the margin update), at any worker
// count — the wide case has layers with fewer nodes than workers and
// parents of over a thousand rows each.
func TestTrainingLoadsBound(t *testing.T) {
	for _, tc := range []struct {
		name          string
		rows, workers int
	}{
		{"rows=640", 640, 0},
		{"rows=2500/workers=4", 2500, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := synth(t, tc.rows, 10)
			p := gbdt.DefaultParams()
			p.NumTrees = 3
			p.MaxDepth = 4
			p.Workers = tc.workers

			inMem, err := gbdt.Train(d, p)
			if err != nil {
				t.Fatal(err)
			}

			// MemBudget 1: nothing fits, the cache falls back to its
			// one-shard floor, so every cross-shard reuse is a fresh demand
			// load — the worst case the bound must still hold at. Prefetch
			// off keeps Loads unpolluted by readahead.
			st := buildStore(t, d, BuildOptions{ChunkRows: 64}, Options{MemBudget: 1})
			defer st.Close()
			labels, err := st.Labels()
			if err != nil {
				t.Fatal(err)
			}
			m, err := gbdt.TrainBinned(st, labels, p)
			if err != nil {
				t.Fatal(err)
			}

			bound := int64(st.NumShards() * (p.MaxDepth + 1) * p.NumTrees)
			cs := st.Stats()
			if cs.Loads > bound {
				t.Fatalf("training demand-loaded %d shards, bound is %d (shards=%d depth=%d trees=%d)",
					cs.Loads, bound, st.NumShards(), p.MaxDepth, p.NumTrees)
			}
			t.Logf("%d demand loads, bound %d", cs.Loads, bound)

			var a, b bytes.Buffer
			if err := inMem.Save(&a); err != nil {
				t.Fatal(err)
			}
			if err := m.Save(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatal("thrashing-budget model is not byte-identical to in-memory model")
			}
		})
	}
}

// dirBytes reads every file in dir into a name → contents map.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// A parallel build must produce the same directory, file for file and
// byte for byte, as a sequential one — including the manifest, labels,
// and shard payloads — for a plain source and a column slice of one.
// A LibSVM file cannot be range-scanned, so Workers 4 reads it through
// the sequential branch and must give the same bytes as Workers 0.
func TestParallelBuildByteIdentity(t *testing.T) {
	gen := dataset.GenOptions{Rows: 3000, Cols: 12, Density: 0.3, Seed: 23}
	synthSrc := func(t *testing.T) Source {
		src, err := NewSynthSource(gen)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	for _, tc := range []struct {
		name   string
		newSrc func(t *testing.T) Source
	}{
		{"synth", synthSrc},
		{"column-slice", func(t *testing.T) Source {
			cs, err := NewColumnSlice(synthSrc(t), 2, 9, true)
			if err != nil {
				t.Fatal(err)
			}
			return cs
		}},
		{"libsvm", func(t *testing.T) Source {
			d, err := dataset.Generate(gen)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "data.libsvm")
			if err := dataset.SaveLibSVMFile(path, d); err != nil {
				t.Fatal(err)
			}
			src, err := NewLibSVMSource(path, 0)
			if err != nil {
				t.Fatal(err)
			}
			return src
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.newSrc(t)
			seqDir, parDir := t.TempDir(), t.TempDir()
			if err := Build(seqDir, src, BuildOptions{ChunkRows: 256}); err != nil {
				t.Fatal(err)
			}
			if err := Build(parDir, src, BuildOptions{ChunkRows: 256, Workers: 4}); err != nil {
				t.Fatal(err)
			}
			seq, par := dirBytes(t, seqDir), dirBytes(t, parDir)
			if len(seq) != len(par) {
				t.Fatalf("file count differs: sequential %d, parallel %d", len(seq), len(par))
			}
			for name, want := range seq {
				got, ok := par[name]
				if !ok {
					t.Fatalf("parallel build missing %s", name)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("%s differs between sequential and parallel build", name)
				}
			}
		})
	}
}

// failingRange is a range source whose failOn-th scan of the chunk
// holding row failAt fails.
type failingRange struct {
	*SynthSource
	failAt int
	failOn int32
	scans  *atomic.Int32
}

var errSourceBroke = errors.New("source broke")

func (s failingRange) ScanRange(lo, hi int, fn func(row int, indices []int32, values []float64, label float64) error) error {
	if lo <= s.failAt && s.failAt < hi && s.scans.Add(1) == s.failOn {
		return errSourceBroke
	}
	return s.SynthSource.ScanRange(lo, hi, fn)
}

// A chunk that fails to read in a parallel build, in the cut pass or in
// the discretize pass, ends the build with that error: the workers drain
// the chunks behind it and exit, and no manifest is committed.
func TestParallelBuildStopsOnSourceError(t *testing.T) {
	src, err := NewSynthSource(dataset.GenOptions{Rows: 3000, Cols: 6, Density: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []int32{1, 2} {
		t.Run(fmt.Sprintf("pass-%d", pass), func(t *testing.T) {
			dir := t.TempDir()
			bad := failingRange{SynthSource: src, failAt: 1000, failOn: pass, scans: new(atomic.Int32)}
			err := Build(dir, bad, BuildOptions{ChunkRows: 128, Workers: 4})
			if !errors.Is(err, errSourceBroke) {
				t.Fatalf("Build error %v, want %v", err, errSourceBroke)
			}
			if _, err := Open(dir, Options{}); err == nil {
				t.Fatal("a failed build left an openable store")
			}
		})
	}
}
