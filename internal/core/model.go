package core

import (
	"encoding/json"
	"fmt"
	"io"

	"vf2boost/internal/dataset"
	"vf2boost/internal/metrics"
)

// Node ownership markers in the federated tree arena.
const (
	OwnerLeaf = -1 // node is a leaf
)

// FedNode is one node of a federated tree as seen by Party B, which knows
// the full structure but, for passive-party splits, only the owner index —
// not the feature or threshold.
type FedNode struct {
	// Owner is OwnerLeaf for leaves, otherwise the party index (passive
	// parties 0..P-2 in order, Party B = P-1) owning the split.
	Owner int `json:"owner"`
	// Feature and Threshold are filled only on nodes owned by the party
	// holding this tree copy; elsewhere they are zero.
	Feature   int32   `json:"feature"`
	Threshold float64 `json:"threshold"`
	Left      int32   `json:"left"`
	Right     int32   `json:"right"`
	// Weight is the leaf weight (Party B only).
	Weight float64 `json:"weight"`
	Gain   float64 `json:"gain,omitempty"`
}

// FedTree is a federated tree arena addressed by the node IDs Party B
// allocates. Under the optimistic protocol aborted children leave holes;
// the arena is a map so holes are free.
type FedTree struct {
	Nodes map[int32]*FedNode `json:"nodes"`
	Root  int32              `json:"root"`
}

// NewFedTree creates a tree with a single leaf root of the given ID.
func NewFedTree(root int32) *FedTree {
	return &FedTree{
		Nodes: map[int32]*FedNode{root: {Owner: OwnerLeaf}},
		Root:  root,
	}
}

// PartyModel is the model fragment one party retains after training: the
// shared structure plus only its own split payloads (features/thresholds).
type PartyModel struct {
	Party int        `json:"party"`
	Trees []*FedTree `json:"trees"`
}

// FederatedModel glues the per-party fragments for joint prediction. In a
// production deployment each fragment stays inside its party and
// prediction is a protocol; in-process evaluation walks them directly.
type FederatedModel struct {
	Parties      []*PartyModel `json:"parties"`
	LearningRate float64       `json:"learning_rate"`
	BaseScore    float64       `json:"base_score"`
	// SplitsByParty counts confirmed splits per party, the "Ratio of
	// Splits in Party B" column of Table 2.
	SplitsByParty []int `json:"splits_by_party"`
	// NumOutputs is the objective's output count k (omitted = 1). Trees
	// are scheduled round-robin: tree t scores class t mod k.
	NumOutputs int `json:"num_outputs,omitempty"`
	// Objective names the training objective when it is not the binary
	// default (e.g. "multiclass:3", "ranking:10").
	Objective string `json:"objective,omitempty"`
}

// NumParties returns the party count.
func (m *FederatedModel) NumParties() int { return len(m.Parties) }

// Outputs returns the model's output count (1 for binary/regression).
func (m *FederatedModel) Outputs() int {
	if m.NumOutputs > 1 {
		return m.NumOutputs
	}
	return 1
}

// PredictMargin routes row i of the vertically-partitioned instance (one
// dataset per party, aligned rows) through every tree.
func (m *FederatedModel) PredictMargin(parts []*dataset.Dataset, i int) (float64, error) {
	if k := m.Outputs(); k > 1 {
		return 0, fmt.Errorf("core: model has %d outputs; use PredictAllOutputs", k)
	}
	if len(parts) != len(m.Parties) {
		return 0, fmt.Errorf("core: model has %d parties, got %d datasets", len(m.Parties), len(parts))
	}
	out := []float64{m.BaseScore}
	if err := m.predict(parts, []int32{int32(i)}, -1, [][]float64{out}); err != nil {
		return 0, err
	}
	return out[0], nil
}

// PredictAll returns raw margins for aligned rows of the per-party
// datasets.
func (m *FederatedModel) PredictAll(parts []*dataset.Dataset) ([]float64, error) {
	return m.PredictAllPrefix(parts, len(m.Parties[len(m.Parties)-1].Trees))
}

// PredictAllPrefix returns margins using only the first k trees, which is
// how the loss-vs-time curves of Figure 10 are reconstructed after
// training (per-tree wall times are recorded by the session).
func (m *FederatedModel) PredictAllPrefix(parts []*dataset.Dataset, k int) ([]float64, error) {
	if o := m.Outputs(); o > 1 {
		return nil, fmt.Errorf("core: model has %d outputs; use PredictAllOutputs", o)
	}
	out, err := m.predictAligned(parts, max(k, 0), 1)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// PredictAllOutputs returns the per-class margin matrix ([class][row])
// of a multi-output model: tree t contributes to class t mod k, with
// BaseScore added to every class. It also serves single-output models
// (the matrix has one row).
func (m *FederatedModel) PredictAllOutputs(parts []*dataset.Dataset) ([][]float64, error) {
	return m.predictAligned(parts, -1, m.Outputs())
}

// predictAligned scores every row of the aligned per-party datasets with
// the first ntrees trees (all when negative or past the end), tree t
// adding to output t mod outputs.
func (m *FederatedModel) predictAligned(parts []*dataset.Dataset, ntrees, outputs int) ([][]float64, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("core: no datasets")
	}
	if len(parts) != len(m.Parties) {
		return nil, fmt.Errorf("core: model has %d parties, got %d datasets", len(m.Parties), len(parts))
	}
	n := parts[0].Rows()
	for _, p := range parts {
		if p.Rows() != n {
			return nil, fmt.Errorf("core: row mismatch across parties")
		}
	}
	out := make([][]float64, outputs)
	for c := range out {
		out[c] = make([]float64, n)
		for i := range out[c] {
			out[c][i] = m.BaseScore
		}
	}
	if err := m.predict(parts, nil, ntrees, out); err != nil {
		return nil, err
	}
	return out, nil
}

// modelRoutes is a glued model compiled for in-process prediction: Party
// B's routing table plus, per passive party, the scoring side of its
// fragment and the bitmap slot of B's table each of its owned splits
// fills (-1: B never routes through it).
type modelRoutes struct {
	b       *RouteTable
	passive []*RouteTable
	fill    [][]int32
}

// compileRoutes compiles the model: Party B (the last fragment) holds the
// structure, and every split it routes through must be in its owner's
// fragment.
func (m *FederatedModel) compileRoutes() (*modelRoutes, error) {
	last := len(m.Parties) - 1
	for p, frag := range m.Parties {
		if frag == nil {
			return nil, fmt.Errorf("%w: party %d has no fragment", ErrModelStructure, p)
		}
	}
	b, err := compileFragment(m.Parties[last], last)
	if err != nil {
		return nil, err
	}
	mr := &modelRoutes{b: b}
	covered := make([]bool, len(b.slotKeys))
	for p := 0; p < last; p++ {
		pt := &RouteTable{party: p}
		pt.compileOwned(m.Parties[p])
		fill := make([]int32, len(pt.owned))
		for i, o := range pt.owned {
			s, ok := b.answerSlot(p, int(o.tree), o.node)
			if !ok {
				s = -1
			} else {
				covered[s] = true
			}
			fill[i] = s
		}
		mr.passive = append(mr.passive, pt)
		mr.fill = append(mr.fill, fill)
	}
	for s, k := range b.slotKeys {
		switch {
		case covered[s]:
		case k.Party > last:
			return nil, fmt.Errorf("%w: tree %d node %d is owned by party %d of a %d-party model", ErrModelStructure, k.Tree, k.Node, k.Party, len(m.Parties))
		default:
			return nil, fmt.Errorf("%w: tree %d node %d missing from owner party %d", ErrModelStructure, k.Tree, k.Node, k.Party)
		}
	}
	return mr, nil
}

// predict is the in-process form of the scoring protocol, block by block:
// every passive party computes the routing bits of the block's rows (rows,
// or every row when nil) for the splits B routes through, and B routes
// the block through the first ntrees trees (all when negative or past the
// end), adding to out[t mod len(out)].
func (m *FederatedModel) predict(parts []*dataset.Dataset, rows []int32, ntrees int, out [][]float64) error {
	mr, err := m.compileRoutes()
	if err != nil {
		return err
	}
	if ntrees < 0 || ntrees > len(mr.b.roots) {
		ntrees = len(mr.b.roots)
	}
	last := len(parts) - 1
	n := len(out[0])
	for _, p := range parts {
		if _, err := checkRows(p, rows); err != nil {
			return err
		}
	}
	bits := make([]byte, mr.b.bitSlots()*blockBytes)
	var cb colBlock
	for lo := 0; lo < n; lo += routeBlock {
		hi := min(lo+routeBlock, n)
		for p, pt := range mr.passive {
			cb.gather(pt.features, parts[p], rows, lo, hi)
			for i, o := range pt.owned {
				if s := int(mr.fill[p][i]); s >= 0 {
					cb.leftBits(o.feature, o.threshold, bits[s*blockBytes:(s+1)*blockBytes])
				}
			}
		}
		cb.gather(mr.b.features, parts[last], rows, lo, hi)
		mr.b.scoreOwn(&cb, bits)
		mr.b.route(out, ntrees, m.LearningRate, bits, lo, hi, nil)
	}
	return nil
}

// Evaluate computes AUC and logloss on aligned validation shards.
func (m *FederatedModel) Evaluate(parts []*dataset.Dataset, labels []float64) (auc, logloss float64, err error) {
	margins, err := m.PredictAll(parts)
	if err != nil {
		return 0, 0, err
	}
	auc, err = metrics.AUC(margins, labels)
	if err != nil {
		return 0, 0, err
	}
	logloss, err = metrics.LogLoss(margins, labels)
	return auc, logloss, err
}

// GainByParty sums the recorded split gains per owner party, a
// privacy-respecting importance summary: it attributes model contribution
// to parties without revealing which features did the work.
func (m *FederatedModel) GainByParty() []float64 {
	out := make([]float64, len(m.Parties))
	bTrees := m.Parties[len(m.Parties)-1].Trees
	for _, t := range bTrees {
		for _, n := range t.Nodes {
			if n.Owner >= 0 && n.Owner < len(out) {
				out[n.Owner] += n.Gain
			}
		}
	}
	return out
}

// FeatureImportance returns one party's per-feature gain sums, computable
// only by combining that party's private fragment (feature identities)
// with Party B's gain records — which is exactly the information the two
// parties jointly hold, so in a deployment this runs as a two-party
// exchange. In-process it reads both fragments directly.
func (m *FederatedModel) FeatureImportance(party int, numFeatures int) []float64 {
	imp := make([]float64, numFeatures)
	bTrees := m.Parties[len(m.Parties)-1].Trees
	ownTrees := m.Parties[party].Trees
	for ti, t := range bTrees {
		for id, n := range t.Nodes {
			if n.Owner != party {
				continue
			}
			own, ok := ownTrees[ti].Nodes[id]
			if party == len(m.Parties)-1 {
				own, ok = n, true
			}
			if ok && int(own.Feature) < numFeatures {
				imp[own.Feature] += n.Gain
			}
		}
	}
	return imp
}

// modelFile versions the serialized form.
type modelFile struct {
	Version int             `json:"version"`
	Model   *FederatedModel `json:"model"`
}

// Save writes the glued federated model as JSON. Note that persisting the
// glued model re-centralizes the per-party secrets; production deployments
// persist PartyModel fragments separately.
func (m *FederatedModel) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(modelFile{Version: 1, Model: m})
}

// Load reads a model written by Save.
func Load(r io.Reader) (*FederatedModel, error) {
	var mf modelFile
	if err := json.NewDecoder(r).Decode(&mf); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	if mf.Version != 1 || mf.Model == nil || len(mf.Model.Parties) == 0 {
		return nil, fmt.Errorf("core: invalid model file")
	}
	return mf.Model, nil
}
