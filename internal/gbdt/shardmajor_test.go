package gbdt

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vf2boost/internal/dataset"
)

// chunkedView exposes an in-memory BinnedMatrix as a ShardedView with
// fixed-height row shards — the pure scheduling harness: no disk, no
// cache, so any model difference is the per-shard cutting's fault.
type chunkedView struct {
	*BinnedMatrix
	chunk      int
	prefetched []int
}

func (v *chunkedView) NumShards() int {
	return (v.Rows() + v.chunk - 1) / v.chunk
}

func (v *chunkedView) ShardRowRange(k int) (int, int) {
	lo := k * v.chunk
	return lo, min(lo+v.chunk, v.Rows())
}

func (v *chunkedView) Shard(int) (BinView, error) { return v.BinnedMatrix, nil }

func (v *chunkedView) PrefetchShard(k int) { v.prefetched = append(v.prefetched, k) }

var (
	_ ShardedView     = (*chunkedView)(nil)
	_ ShardPrefetcher = (*chunkedView)(nil)
)

func synthBinned(t *testing.T, rows, cols int, seed int64) (*dataset.Dataset, *BinnedMatrix) {
	t.Helper()
	d, err := dataset.Generate(dataset.GenOptions{Rows: rows, Cols: cols, Density: 0.5, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := NewBinMapper(d, 16)
	if err != nil {
		t.Fatal(err)
	}
	return d, NewBinnedMatrix(d, mapper)
}

func modelBytes(t *testing.T, m *Model) []byte {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A sharded view must grow byte-identical trees to the unsharded matrix
// — float addition is not associative, so this only holds if cutting a
// list into per-shard runs leaves every histogram's addition order alone.
func TestShardMajorModelParity(t *testing.T) {
	for _, rows := range []int{300, 2500} {
		d, bm := synthBinned(t, rows, 8, 42)
		for _, workers := range []int{1, 2, 4} {
			p := DefaultParams()
			p.NumTrees = 3
			p.MaxDepth = 4
			p.MaxBins = 16
			p.Workers = workers

			ref, err := TrainBinned(bm, d.Labels, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, chunk := range []int{64, 1 << 10} {
				cv := &chunkedView{BinnedMatrix: bm, chunk: chunk}
				got, err := TrainBinned(cv, d.Labels, p)
				if err != nil {
					t.Fatal(err)
				}
				if string(modelBytes(t, ref)) != string(modelBytes(t, got)) {
					t.Fatalf("rows=%d workers=%d chunk=%d: sharded model differs from unsharded", rows, workers, chunk)
				}
				if len(cv.prefetched) == 0 && cv.NumShards() > 1 {
					t.Fatalf("rows=%d chunk=%d: sweep never announced a next shard", rows, chunk)
				}
			}
		}
	}
}

// BuildHistograms (the federated engines' entry point) must produce
// bit-equal histograms over a sharded view for ascending lists, and
// refuse a non-ascending one by name.
func TestBuildHistogramsShardedParity(t *testing.T) {
	d, bm := synthBinned(t, 2000, 6, 7)
	n := d.Rows()
	grads := make([]float64, n)
	hess := make([]float64, n)
	for i := range grads {
		grads[i] = float64(i%17) * 0.25
		hess[i] = 1 + float64(i%5)*0.125
	}
	// Ascending lists of varied sizes, including one crossing the 1024
	// chunking threshold and one empty.
	var big, small, empty []int32
	for i := 0; i < n; i += 2 {
		big = append(big, int32(i))
	}
	for i := 1; i < 200; i += 3 {
		small = append(small, int32(i))
	}
	lists := [][]int32{big, small, empty}

	for _, workers := range []int{1, 2, 4} {
		ref, err := BuildHistograms(bm, lists, grads, hess, workers)
		if err != nil {
			t.Fatal(err)
		}
		cv := &chunkedView{BinnedMatrix: bm, chunk: 256}
		got, err := BuildHistograms(cv, lists, grads, hess, workers)
		if err != nil {
			t.Fatal(err)
		}
		for k := range ref {
			if !reflect.DeepEqual(ref[k].G, got[k].G) || !reflect.DeepEqual(ref[k].H, got[k].H) || !reflect.DeepEqual(ref[k].Count, got[k].Count) {
				t.Fatalf("workers=%d: histogram %d differs between schedules", workers, k)
			}
		}
	}

	// A non-ascending list cannot be cut at shard boundaries: it is
	// refused, naming the list, before any shard is swept.
	desc := []int32{900, 500, 100, 3}
	cv := &chunkedView{BinnedMatrix: bm, chunk: 256}
	for _, view := range []BinView{bm, cv} {
		_, err := BuildHistograms(view, [][]int32{small, desc}, grads, hess, 2)
		if err == nil || !strings.Contains(err.Error(), "list 1 is not ascending") {
			t.Fatalf("%T: non-ascending list 1 gave error %v", view, err)
		}
	}
	if len(cv.prefetched) != 0 {
		t.Fatal("a refused call swept shards")
	}
}

// goldenModels pins the model of one local session per row count; the
// hashes are those of a single sequential Accumulate per node, so they
// must hold at every worker count and over a sharded view alike.
var goldenModels = []struct {
	rows int
	want string
}{
	{300, "cc4294da6caeafec1f1aa6dc0ac9eb6e90d1cfea4498a3422ca5a15178119160"},
	{2500, "438e8edd600ecad889c51999ff49f9310b39af55b1ebbe7af448fd5feaa241a3"},
	{10000, "02a503132918fe49097895f608bf755c9f97cb571f536fc759d30769516b1fbe"},
}

func TestGoldenModelAtEveryWorkerCount(t *testing.T) {
	for _, g := range goldenModels {
		d, bm := synthBinned(t, g.rows, 8, 42)
		for _, workers := range []int{1, 2, 4} {
			for _, view := range []BinView{bm, &chunkedView{BinnedMatrix: bm, chunk: 256}} {
				p := DefaultParams()
				p.NumTrees, p.MaxDepth, p.MaxBins, p.Workers = 3, 5, 16, workers
				m, err := TrainBinned(view, d.Labels, p)
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(modelBytes(t, m))); got != g.want {
					t.Errorf("rows=%d workers=%d %T: model hash %s, want %s", g.rows, workers, view, got, g.want)
				}
			}
		}
	}
}

// planShardSegs must cover every instance exactly once, split at shard
// boundaries, in ascending order.
func TestPlanShardTasks(t *testing.T) {
	_, bm := synthBinned(t, 1000, 4, 3)
	cv := &chunkedView{BinnedMatrix: bm, chunk: 300}
	insts := []int32{0, 5, 299, 300, 301, 899, 900, 999}
	segs := planShardSegs(cv, [][]int32{insts})
	var flat []int32
	for s := range segs {
		for _, seg := range segs[s] {
			lo, hi := cv.ShardRowRange(s)
			for _, i := range insts[seg.lo:seg.hi] {
				if int(i) < lo || int(i) >= hi {
					t.Fatalf("instance %d assigned to shard %d [%d,%d)", i, s, lo, hi)
				}
				flat = append(flat, i)
			}
		}
	}
	if !reflect.DeepEqual(flat, insts) {
		t.Fatalf("segments cover %v, want %v", flat, insts)
	}
}
