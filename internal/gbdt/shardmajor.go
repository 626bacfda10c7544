package gbdt

import (
	"sort"
	"sync"
)

// Tree growth: one schedule, one reduction order.
//
// Every row loop of the trainer goes through SweepShards below: a layer
// walks the view's shards in row order exactly once and, while a shard is
// resident, handles *every* node's rows that live in it. A view without
// shards (the in-memory BinnedMatrix) is the one-shard case of the same
// code, so there is no second schedule to keep in step with this one.
//
// The reduction order is defined once, here: a node's histogram is one
// sequential Accumulate over its ascending instance list. Instance lists
// are ascending (the root list is 0..n-1 and routing preserves order), so
// a list's rows inside one shard form one contiguous run, and SweepShards
// hands a list's runs over in ascending shard order, one at a time. A
// histogram therefore sees exactly the float additions of a single walk
// of its list — whatever the shard size and whatever Workers is. Float
// addition is not associative, so this is what makes a model's bytes
// independent of the core count and of the storage layout.
//
// Parallelism lives only across the nodes of a shard (distinct
// histograms, no races) and in the I/O: the sweep hints the next shard it
// will touch to a ShardPrefetcher so its read overlaps this shard's
// compute, and the store's singleflight load path (internal/ooc) lets
// concurrent loads of distinct shards proceed without serializing on a
// store-wide mutex.
//
// Routing is fused into the next layer's sweep (growTree): one pass both
// routes the previous layer's split rows to their children and
// accumulates the children's histograms, so a tree of depth d costs d
// sweeps plus the margin update — (d+1) × shards loads per tree in total,
// the bound the regression tests assert.

// ShardedView is an optional BinView capability implemented by views
// whose rows live in contiguous row-range shards with non-uniform access
// cost (the disk-backed store in internal/ooc). When a view reports more
// than one shard, each sweep makes every shard it touches resident once;
// the model is the one the same rows give in memory.
type ShardedView interface {
	BinView
	// NumShards returns the shard count.
	NumShards() int
	// ShardRowRange returns the half-open row range [lo, hi) of shard k.
	// Shards cover the row space contiguously and in index order.
	ShardRowRange(k int) (lo, hi int)
	// Shard makes shard k resident — one cache visit, however many of its
	// rows are then read — and returns a view that serves k's rows from
	// the copy it holds: an eviction behind the reader's back costs no
	// reload. The failure is Row's.
	Shard(k int) (BinView, error)
}

// ShardPrefetcher is an optional capability of a ShardedView: the sweep
// announces the next shard it is going to touch so the view can read it
// ahead asynchronously. PrefetchShard must not block; a view is free to
// ignore hints (e.g. under budget pressure).
type ShardPrefetcher interface{ PrefetchShard(k int) }

// shardMajor reports whether bm has more than one shard to sweep.
func shardMajor(bm BinView) (ShardedView, bool) {
	sv, ok := bm.(ShardedView)
	return sv, ok && sv.NumShards() > 1
}

// shardSeg is the run lists[list][lo:hi] of one list inside one shard.
type shardSeg struct{ list, lo, hi int }

// planShardSegs cuts every list at the shard boundaries. A list is
// ascending, so its rows inside one shard are one contiguous run, found by
// binary search.
func planShardSegs(sv ShardedView, lists [][]int32) [][]shardSeg {
	segs := make([][]shardSeg, sv.NumShards())
	for k, l := range lists {
		for i := 0; i < len(l); {
			s := shardOf(sv, int(l[i]))
			_, hiRow := sv.ShardRowRange(s)
			j := i + sort.Search(len(l)-i, func(x int) bool { return int(l[i+x]) >= hiRow })
			segs[s] = append(segs[s], shardSeg{list: k, lo: i, hi: j})
			i = j
		}
	}
	return segs
}

// shardOf locates the shard holding a row.
func shardOf(sv ShardedView, row int) int {
	return sort.Search(sv.NumShards(), func(s int) bool {
		_, hi := sv.ShardRowRange(s)
		return row < hi
	})
}

// SweepShards is the one way to read the rows of a set of ascending
// instance lists: it walks the shards the lists touch in row order, makes
// each resident once (ShardedView.Shard) with the next one announced for
// readahead, and hands visit every list's run inside the shard —
// lists[list][lo:hi], to be read through rows. run executes the n units
// of a shard — calling unit(0..n-1) on whatever goroutines it owns and
// returning the first error once all have returned — and is the barrier
// between shards: the runs of one list reach visit in ascending order,
// one at a time, while different lists proceed in parallel; hi ==
// len(lists[list]) marks a list's last run. An empty list is never
// visited. A view without shards (the in-memory BinnedMatrix) is the
// one-shard case of the same code: one unit per list, the whole list.
func SweepShards(bv BinView, lists [][]int32, run func(n int, unit func(i int) error) error,
	visit func(rows BinView, list, lo, hi int) error) error {
	sv, sharded := shardMajor(bv)
	segs := make([][]shardSeg, 1)
	if sharded {
		segs = planShardSegs(sv, lists)
	} else {
		for k, l := range lists {
			if len(l) > 0 {
				segs[0] = append(segs[0], shardSeg{list: k, hi: len(l)})
			}
		}
	}
	var touched []int
	for s := range segs {
		if len(segs[s]) > 0 {
			touched = append(touched, s)
		}
	}
	pf, _ := bv.(ShardPrefetcher)
	for ti, s := range touched {
		rows := bv
		if sharded {
			// Announce the next shard only once this one is resident:
			// prefetching before the demand load would race it for the
			// cache's LRU slots; after it, the current shard is the most
			// recently used and safe.
			var err error
			if rows, err = sv.Shard(s); err != nil {
				return err
			}
			if pf != nil && ti+1 < len(touched) {
				pf.PrefetchShard(touched[ti+1])
			}
		}
		ss := segs[s]
		if err := run(len(ss), func(i int) error { return visit(rows, ss[i].list, ss[i].lo, ss[i].hi) }); err != nil {
			return err
		}
	}
	return nil
}

// unitsOn returns a SweepShards runner on up to `workers` goroutines.
func unitsOn(workers int) func(n int, unit func(i int) error) error {
	return func(n int, unit func(i int) error) error {
		if workers <= 1 || n == 1 {
			for i := 0; i < n; i++ {
				if err := unit(i); err != nil {
					return err
				}
			}
			return nil
		}
		var wg sync.WaitGroup
		var ec errCollector
		sem := make(chan struct{}, workers)
		for i := 0; i < n; i++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				ec.add(unit(i))
			}(i)
		}
		wg.Wait()
		return ec.first()
	}
}

// buildLayerHistograms builds one histogram per ascending instance list in
// one sweep, each in the canonical order. The first view failure any
// worker hits wins; the partial layer is discarded.
func buildLayerHistograms(bv BinView, lists [][]int32, grads, hess []float64, workers int) ([]*Histogram, error) {
	hists := make([]*Histogram, len(lists))
	for k := range hists {
		hists[k] = NewHistogram(bv.Mapper())
	}
	err := SweepShards(bv, lists, unitsOn(workers), func(rows BinView, k, lo, hi int) error {
		return hists[k].Accumulate(rows, lists[k][lo:hi], grads, hess)
	})
	if err != nil {
		return nil, err
	}
	return hists, nil
}

// fuseTask is one split carried into the next layer's sweep: the parent
// list still to be routed, and the two children whose instance lists and
// histograms the sweep fills in.
type fuseTask struct {
	parent       *nodeWork
	feature, bin int32
	left, right  *nodeWork
}

// fusedSweep performs one shard pass that both routes every parent's rows
// to its children and accumulates the children's histograms (left, right
// per task). A parent's runs arrive one at a time in ascending order, so
// its children's lists are appended to in place, come out ascending, and
// each child histogram receives its rows in the canonical order.
func fusedSweep(bv BinView, fusion []*fuseTask, grads, hess []float64, workers int) ([]*Histogram, error) {
	hists := make([]*Histogram, 2*len(fusion))
	for i := range hists {
		hists[i] = NewHistogram(bv.Mapper())
	}
	parents := make([][]int32, len(fusion))
	for i, f := range fusion {
		parents[i] = f.parent.insts
	}
	err := SweepShards(bv, parents, unitsOn(workers), func(rows BinView, k, lo, hi int) error {
		f := fusion[k]
		nl, nr := len(f.left.insts), len(f.right.insts)
		for _, i := range f.parent.insts[lo:hi] {
			goesLeft, err := GoesLeft(rows, i, f.feature, f.bin)
			if err != nil {
				return err
			}
			if goesLeft {
				f.left.insts = append(f.left.insts, i)
			} else {
				f.right.insts = append(f.right.insts, i)
			}
		}
		if err := hists[2*k].Accumulate(rows, f.left.insts[nl:], grads, hess); err != nil {
			return err
		}
		return hists[2*k+1].Accumulate(rows, f.right.insts[nr:], grads, hess)
	})
	if err != nil {
		return nil, err
	}
	return hists, nil
}

// growTree grows one tree layer by layer. Each layer costs one sweep
// (fused routing + child histograms); the last layer's routing is skipped
// entirely because leaf weights come from the split statistics, never
// from the child lists. A view failure (a disk-backed view that could not
// deliver a row even after its self-healing path ran) aborts the tree and
// surfaces as the view's typed error.
func growTree(bv BinView, grads, hess []float64, p Params) (*Tree, error) {
	tree := NewTree()
	all := make([]int32, bv.Rows())
	var g0, h0 float64
	for i := range all {
		all[i] = int32(i)
		g0 += grads[i]
		h0 += hess[i]
	}
	active := []*nodeWork{{id: 0, insts: all, g: g0, h: h0}}

	hists, err := buildLayerHistograms(bv, [][]int32{all}, grads, hess, p.Workers)
	if err != nil {
		return nil, err
	}
	for depth := 0; ; depth++ {
		last := depth == p.MaxDepth-1
		var fusion []*fuseTask
		var next []*nodeWork
		for k, nw := range active {
			split := BestSplit(hists[k], nw.g, nw.h, p.Split)
			if !split.Valid() {
				tree.SetLeaf(nw.id, LeafWeight(nw.g, nw.h, p.Split.Lambda))
				continue
			}
			threshold := bv.Mapper().Threshold(int(split.Feature), int(split.Bin))
			leftID, rightID := tree.AddSplit(nw.id, split.Feature, threshold, split.Gain)
			left := &nodeWork{id: leftID, g: split.GL, h: split.HL}
			right := &nodeWork{id: rightID, g: nw.g - split.GL, h: nw.h - split.HL}
			if last {
				tree.SetLeaf(leftID, LeafWeight(left.g, left.h, p.Split.Lambda))
				tree.SetLeaf(rightID, LeafWeight(right.g, right.h, p.Split.Lambda))
				continue
			}
			fusion = append(fusion, &fuseTask{parent: nw, feature: split.Feature, bin: split.Bin, left: left, right: right})
			next = append(next, left, right)
		}
		if last || len(next) == 0 {
			return tree, nil
		}
		if hists, err = fusedSweep(bv, fusion, grads, hess, p.Workers); err != nil {
			return nil, err
		}
		active = next
	}
}
