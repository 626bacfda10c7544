package gbdt

import (
	"fmt"
	"runtime"
	"sync"

	"vf2boost/internal/dataset"
)

// Params configures training. DefaultParams matches the paper's protocol:
// T=20 trees, η=0.1, L=7 tree layers (6 split levels), s=20 bins.
type Params struct {
	// NumTrees is T.
	NumTrees int
	// LearningRate is η.
	LearningRate float64
	// MaxDepth is the number of split levels; a tree has MaxDepth+1
	// layers of nodes.
	MaxDepth int
	// MaxBins is s, the histogram bins per feature.
	MaxBins int
	// Split holds the regularization parameters.
	Split SplitParams
	// Loss is the training objective (defaults to logistic).
	Loss Loss
	// Workers bounds parallelism across the nodes of a layer and the rows
	// of a margin update; <= 0 uses GOMAXPROCS. It never changes the model:
	// a node's histogram is one sequential sweep of its instance list at
	// every worker count (see shardmajor.go).
	Workers int
	// BaseScore is the initial raw margin of every instance.
	BaseScore float64
	// OnTreeDone, if set, is called after each boosting round with the
	// model built so far (used by the loss-vs-time harness of Figure 10).
	OnTreeDone func(tree int, m *Model)
}

// DefaultParams returns the paper's hyper-parameters.
func DefaultParams() Params {
	return Params{
		NumTrees:     20,
		LearningRate: 0.1,
		MaxDepth:     6,
		MaxBins:      20,
		Split:        SplitParams{Lambda: 1},
		Loss:         LogisticLoss{},
	}
}

func (p *Params) normalize() error {
	if p.NumTrees <= 0 {
		return fmt.Errorf("gbdt: NumTrees must be positive, got %d", p.NumTrees)
	}
	if p.LearningRate <= 0 {
		return fmt.Errorf("gbdt: LearningRate must be positive, got %g", p.LearningRate)
	}
	if p.MaxDepth < 1 || p.MaxDepth > 30 {
		return fmt.Errorf("gbdt: MaxDepth %d out of [1,30]", p.MaxDepth)
	}
	if p.MaxBins < 2 || p.MaxBins > 256 {
		return fmt.Errorf("gbdt: MaxBins %d out of [2,256]", p.MaxBins)
	}
	if p.Loss == nil {
		p.Loss = LogisticLoss{}
	}
	if p.Workers <= 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	return nil
}

// Model is a trained GBDT ensemble.
type Model struct {
	Trees        []*Tree `json:"trees"`
	LearningRate float64 `json:"learning_rate"`
	BaseScore    float64 `json:"base_score"`
	LossName     string  `json:"loss"`
	NumFeatures  int     `json:"num_features"`
	// NumOutputs is k for multi-output models (trees stored round-robin,
	// tree t belongs to output t mod k); 0 or 1 means single-output, and
	// the trainer leaves it 0.
	NumOutputs int `json:"num_outputs,omitempty"`
}

// PredictMargin returns the raw margin of row i.
func (m *Model) PredictMargin(d *dataset.Dataset, i int) float64 {
	s := m.BaseScore
	for _, t := range m.Trees {
		s += m.LearningRate * t.Predict(d, i)
	}
	return s
}

// PredictAll returns raw margins for every row.
func (m *Model) PredictAll(d *dataset.Dataset) []float64 {
	out := make([]float64, d.Rows())
	parallelRows(d.Rows(), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = m.PredictMargin(d, i)
		}
	})
	return out
}

// Outputs returns the model's output count, 1 for a single-output model
// (NumOutputs 0).
func (m *Model) Outputs() int {
	if m.NumOutputs > 1 {
		return m.NumOutputs
	}
	return 1
}

// PredictAllOutputs returns the k×n raw margin matrix for every row.
// Trees are stored round-robin: tree t belongs to output t mod k.
func (m *Model) PredictAllOutputs(d *dataset.Dataset) [][]float64 {
	k := m.Outputs()
	out := make([][]float64, k)
	for c := range out {
		out[c] = make([]float64, d.Rows())
	}
	parallelRows(d.Rows(), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for t, tree := range m.Trees {
				out[t%k][i] += m.LearningRate * tree.Predict(d, i)
			}
		}
	})
	if m.BaseScore != 0 {
		for c := range out {
			for i := range out[c] {
				out[c][i] += m.BaseScore
			}
		}
	}
	return out
}

// nodeWork is the per-node state during layer-wise growth.
type nodeWork struct {
	id    int32
	insts []int32
	g, h  float64
}

// Train fits a GBDT model on a labeled dataset under p.Loss.
func Train(d *dataset.Dataset, p Params) (*Model, error) {
	if d.Labels == nil {
		return nil, fmt.Errorf("gbdt: dataset has no labels")
	}
	if err := p.normalize(); err != nil {
		return nil, err
	}
	mapper, err := NewBinMapper(d, p.MaxBins)
	if err != nil {
		return nil, err
	}
	return TrainBinned(NewBinnedMatrix(d, mapper), d.Labels, nil, p)
}

// TrainBinned fits a k-output GBDT model from an already-discretized
// view and its label vector — the one trainer of the in-memory path
// (Train above) and the out-of-core path (internal/ooc), which never
// materializes a Dataset. A nil obj trains p.Loss (ScalarObjective).
//
// Each of the p.NumTrees boosting rounds grows k trees, one per output in
// round-robin order; k = 1 is the classic one tree per round. The
// objective's GradHess runs once per round — the local mirror of the
// federated engine's one-encryption-pass-per-round schedule — and the
// round's k trees consume its k gradient vectors. Margins are updated
// through binned routing, which is exactly equivalent to raw-value
// routing: every split threshold is a cut value, so "v <= Cuts[f][k]"
// and "Bin(f, v) <= k" partition instances identically.
func TrainBinned(bv BinView, labels []float64, obj MultiObjective, p Params) (*Model, error) {
	if err := p.normalize(); err != nil {
		return nil, err
	}
	if obj == nil {
		obj = ScalarObjective{p.Loss}
	}
	k := obj.NumOutputs()
	if k < 1 {
		return nil, fmt.Errorf("gbdt: objective %s has %d outputs", obj.Name(), k)
	}
	n := bv.Rows()
	if len(labels) != n {
		return nil, fmt.Errorf("gbdt: %d labels for %d rows", len(labels), n)
	}
	margins := make([][]float64, k)
	grads := make([][]float64, k)
	hess := make([][]float64, k)
	for c := 0; c < k; c++ {
		margins[c] = make([]float64, n)
		grads[c] = make([]float64, n)
		hess[c] = make([]float64, n)
		init := p.BaseScore + obj.InitMargin(labels, c)
		for i := range margins[c] {
			margins[c][i] = init
		}
	}
	model := &Model{
		LearningRate: p.LearningRate,
		BaseScore:    p.BaseScore,
		LossName:     obj.Name(),
		NumFeatures:  len(bv.Mapper().Cuts),
	}
	if k > 1 {
		model.NumOutputs = k
	}

	for round := 0; round < p.NumTrees; round++ {
		if err := obj.GradHess(labels, margins, grads, hess); err != nil {
			return nil, err
		}
		for c := 0; c < k; c++ {
			tree, err := growTree(bv, grads[c], hess[c], p)
			if err != nil {
				return nil, err
			}
			model.Trees = append(model.Trees, tree)
			if err := updateMarginsBinned(margins[c], tree, bv, p.LearningRate, p.Workers); err != nil {
				return nil, err
			}
		}
		if p.OnTreeDone != nil {
			p.OnTreeDone(round, model)
		}
	}
	return model, nil
}

// GoesLeft reports whether instance i routes to the left child of a split
// on (feature, bin): stored values in bins <= bin go left, missing goes
// left.
func GoesLeft(bm BinView, i, feature, bin int32) (bool, error) {
	cols, bins, err := bm.Row(int(i))
	if err != nil {
		return false, err
	}
	lo, hi := 0, len(cols)
	for lo < hi {
		mid := (lo + hi) / 2
		if cols[mid] < feature {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cols) && cols[lo] == feature {
		return int32(bins[lo]) <= bin, nil
	}
	return true, nil // missing
}

// BuildHistograms builds one histogram per ascending instance list, in
// one sweep and in the trainer's reduction order. It is shared with the
// federated engine, where Party B builds its plaintext histograms with
// exactly the local trainer's code. A list that is not ascending cannot
// be cut at shard boundaries and is refused.
func BuildHistograms(bm BinView, lists [][]int32, grads, hess []float64, workers int) ([]*Histogram, error) {
	for k, l := range lists {
		for i := 1; i < len(l); i++ {
			if l[i-1] > l[i] {
				return nil, fmt.Errorf("gbdt: instance list %d is not ascending (row %d follows row %d)", k, l[i], l[i-1])
			}
		}
	}
	return buildLayerHistograms(bm, lists, grads, hess, workers)
}

// errCollector retains the first error reported by a set of workers.
type errCollector struct {
	mu  sync.Mutex
	err error
}

func (c *errCollector) add(err error) {
	if err == nil {
		return
	}
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

func (c *errCollector) first() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// updateMarginsBinned adds each instance's leaf weight to its margin,
// routing through the binned view instead of raw values. Every internal
// node's threshold is a mapper cut, so precomputing its bin index lets a
// row walk the tree on stored bins alone; missing features route left,
// matching Tree.Predict.
//
// Like every other sweep of the tree, it visits one shard at a time with
// the workers inside it (spread over the row space they would each hold a
// different shard, evict one another's at a tight budget, and reload
// mid-sweep); a view without shards is the one range [0, n).
func updateMarginsBinned(margins []float64, tree *Tree, bv BinView, eta float64, workers int) error {
	bins := splitBins(tree, bv.Mapper())
	var ec errCollector
	update := func(rows BinView, lo, hi int) {
		for i := lo; i < hi; i++ {
			cols, rowBins, err := rows.Row(i)
			if err != nil {
				ec.add(err)
				return
			}
			margins[i] += eta * predictBinnedRow(tree, bins, cols, rowBins)
		}
	}
	sv, sharded := shardMajor(bv)
	shards := 1
	if sharded {
		shards = sv.NumShards()
	}
	for s := 0; s < shards && ec.first() == nil; s++ {
		rows, lo, hi := bv, 0, len(margins)
		if sharded {
			var err error
			if rows, err = sv.Shard(s); err != nil {
				return err
			}
			lo, hi = sv.ShardRowRange(s)
		}
		parallelRows(hi-lo, workers, func(a, b int) { update(rows, lo+a, lo+b) })
	}
	return ec.first()
}

// splitBins precomputes, for every internal node, the bin index of its
// threshold: Bin(f, Threshold(f,k)) == k because cuts are strictly
// increasing, so binned routing "rowBin <= bins[id]" is exactly the raw
// routing "v <= threshold".
func splitBins(t *Tree, m *BinMapper) []int32 {
	bins := make([]int32, len(t.Nodes))
	for id := range t.Nodes {
		n := &t.Nodes[id]
		if n.Feature >= 0 {
			bins[id] = int32(m.Bin(int(n.Feature), n.Threshold))
		}
	}
	return bins
}

// predictBinnedRow walks one tree over a row's stored (feature, bin)
// pairs (sorted by feature) and returns the leaf weight.
func predictBinnedRow(t *Tree, bins []int32, cols []int32, rowBins []uint8) float64 {
	id := int32(0)
	for {
		n := &t.Nodes[id]
		if n.Feature < 0 {
			return n.Weight
		}
		// Binary search the row's sorted feature list.
		lo, hi := 0, len(cols)
		for lo < hi {
			mid := (lo + hi) / 2
			if cols[mid] < n.Feature {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(cols) && cols[lo] == n.Feature {
			if int32(rowBins[lo]) <= bins[id] {
				id = n.Left
			} else {
				id = n.Right
			}
		} else {
			id = n.Left // missing
		}
	}
}

func parallelRows(n, workers int, fn func(lo, hi int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
