package ooc

import (
	"runtime"
	"slices"
	"testing"

	"vf2boost/internal/dataset"
)

// A demand load allocates the shard it keeps and little else: the file
// image it decodes is read into a pooled buffer, not a fresh array per
// load. The shards are ~0.75 MB, so a load's bookkeeping is noise beside
// its arrays; the cache holds one shard (MemBudget 1) and readahead is off,
// so every visit of another shard is a demand load.
func TestShardLoadAllocatesOnlyWhatItKeeps(t *testing.T) {
	d, err := dataset.Generate(dataset.GenOptions{Rows: 4 * 4096, Cols: 40, Density: 0.9, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	st := buildStore(t, d, BuildOptions{ChunkRows: 4096}, Options{MemBudget: 1})
	defer st.Close()
	visit := func(k int) {
		if _, err := st.Shard(k); err != nil {
			t.Fatal(err)
		}
	}
	visit(0) // sizes the pool's buffer

	const loads = 48
	var kept int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := 1; n <= loads; n++ {
		k := n % st.NumShards()
		visit(k)
		rec := st.man.Shards[k]
		kept += estShardBytes(rec.Rows, rec.NNZ)
	}
	runtime.ReadMemStats(&after)
	if got := st.Stats().Loads; got != loads+1 {
		t.Fatalf("%d demand loads, want %d: the cache kept a shard it should not", got, loads+1)
	}
	// Under the race detector sync.Pool drops a quarter of its Puts on
	// purpose, and each drop costs the next load one file image.
	limit := 1.25
	if raceEnabled {
		limit += 0.25
	}
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(kept)
	if ratio > limit {
		t.Errorf("%d loads allocated %.2f× the %d shard bytes they keep, limit %.2f×", loads, ratio, kept, limit)
	}
	t.Logf("%d loads allocated %.3f× the shard bytes they keep", loads, ratio)
}

// A view pinned before every other shard is loaded — each load reading
// into the buffer the pinned shard was decoded from — still returns its
// original rows after its shard has left the cache.
func TestPinnedShardSurvivesBufferReuse(t *testing.T) {
	st := buildStore(t, synth(t, 640, 8), BuildOptions{ChunkRows: 64}, Options{MemBudget: 1})
	defer st.Close()
	pinned, err := st.Shard(0)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := st.ShardRowRange(0)
	wantCols := make([][]int32, hi-lo)
	wantBins := make([][]uint8, hi-lo)
	for i := lo; i < hi; i++ {
		cols, bins := rowOf(t, pinned, i)
		wantCols[i-lo], wantBins[i-lo] = slices.Clone(cols), slices.Clone(bins)
	}
	for k := 1; k < st.NumShards(); k++ {
		if _, err := st.Shard(k); err != nil {
			t.Fatal(err)
		}
	}
	if st.data[0].Load() != nil || st.Stats().Loads != int64(st.NumShards()) {
		t.Fatalf("shard 0 still resident after %d loads", st.Stats().Loads)
	}
	for i := lo; i < hi; i++ {
		cols, bins := rowOf(t, pinned, i)
		if !slices.Equal(cols, wantCols[i-lo]) || !slices.Equal(bins, wantBins[i-lo]) {
			t.Fatalf("row %d of the pinned shard changed after the other shards loaded", i)
		}
	}
}
