package ooc

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
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
// byte for byte, as a serial one — including the manifest, labels, and
// shard payloads — for both a plain source and a column slice of one.
func TestParallelBuildByteIdentity(t *testing.T) {
	gen := dataset.GenOptions{Rows: 3000, Cols: 12, Density: 0.3, Seed: 23}
	newSrc := func(t *testing.T, slice bool) Source {
		src, err := NewSynthSource(gen)
		if err != nil {
			t.Fatal(err)
		}
		if !slice {
			return src
		}
		cs, err := NewColumnSlice(src, 2, 9, true)
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}
	for _, tc := range []struct {
		name  string
		slice bool
	}{{"synth", false}, {"column-slice", true}} {
		t.Run(tc.name, func(t *testing.T) {
			serialDir, parDir := t.TempDir(), t.TempDir()
			if err := Build(serialDir, newSrc(t, tc.slice), BuildOptions{ChunkRows: 256}); err != nil {
				t.Fatal(err)
			}
			if err := Build(parDir, newSrc(t, tc.slice), BuildOptions{ChunkRows: 256, Workers: 4}); err != nil {
				t.Fatal(err)
			}
			serial, par := dirBytes(t, serialDir), dirBytes(t, parDir)
			if len(serial) != len(par) {
				t.Fatalf("file count differs: serial %d, parallel %d", len(serial), len(par))
			}
			for name, want := range serial {
				got, ok := par[name]
				if !ok {
					t.Fatalf("parallel build missing %s", name)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("%s differs between serial and parallel build", name)
				}
			}
		})
	}
}
