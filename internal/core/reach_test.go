package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vf2boost/internal/dataset"
	"vf2boost/internal/wire"
)

// pruneRound plays one scoring round in its wire form: every passive
// party not in missing compiles its fragment, binds B's reach links,
// answers, and the answer crosses the binary codec before B files it. It
// returns B's margins, the skipped tree count and the answers' bit bytes.
func pruneRound(t *testing.T, m *FederatedModel, parts []*dataset.Dataset, rows []int32, missing map[int]bool) ([]float64, int, int) {
	t.Helper()
	last := len(parts) - 1
	bt, err := CompileFragment(m.Parties[last])
	if err != nil {
		t.Fatal(err)
	}
	n := len(rows)
	if rows == nil {
		n = parts[last].Rows()
	}
	rb := bt.NewRoundBits(n)
	bitBytes := 0
	for p := 0; p < last; p++ {
		if missing[p] {
			continue
		}
		owned, err := CompileOwnedSplits(m.Parties[p])
		if err != nil {
			t.Fatal(err)
		}
		table, err := owned.Bind(bt.Reach(p))
		if err != nil {
			t.Fatal(err)
		}
		nodes, err := table.Score(parts[p], rows)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := wire.Binary.Encode(MsgScoreResponse{Round: 1, Version: 1, Party: p, Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		msg, err := wire.Binary.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		for _, nb := range msg.(MsgScoreResponse).Nodes {
			bitBytes += len(nb.Bits)
		}
		if err := rb.Place(p, msg.(MsgScoreResponse).Nodes); err != nil {
			t.Fatal(err)
		}
	}
	margins, skipped, err := bt.RouteMargins(m.LearningRate, m.BaseScore, parts[last], rows, rb, missing)
	if err != nil {
		t.Fatal(err)
	}
	return margins, skipped, bitBytes
}

// TestPrunedRoundsDegraded: over trained models with one to three passive
// parties, pruned answers route every round — bulk, a handful of rows,
// duplicated rows — exactly as the full bitmaps do, with any set of
// parties missing; a tree that holds a missing party's split is skipped
// whole, and one that does not is routed.
func TestPrunedRoundsDegraded(t *testing.T) {
	for passive := 1; passive <= 3; passive++ {
		t.Run(fmt.Sprintf("passive=%d", passive), func(t *testing.T) {
			split := make([]int, passive+1)
			for i := range split {
				split[i] = 3
			}
			d, err := dataset.Generate(dataset.GenOptions{Rows: 300, Cols: 3 * (passive + 1), Density: 1, Dense: true, Seed: int64(40 + passive)})
			if err != nil {
				t.Fatal(err)
			}
			parts, err := d.VerticalSplit(split, passive)
			if err != nil {
				t.Fatal(err)
			}
			cfg := quickConfig(SchemeMock)
			cfg.Trees, cfg.MaxDepth = 5, 4
			m, _ := trainFed(t, parts, cfg)
			b := m.Parties[passive]
			rng := rand.New(rand.NewSource(int64(passive)))
			skips := 0
			for mask := 0; mask < 1<<passive; mask++ {
				missing := make(map[int]bool)
				for p := 0; p < passive; p++ {
					if mask&(1<<p) != 0 {
						missing[p] = true
					}
				}
				wantSkipped := 0
				for _, tree := range b.Trees {
					for _, nd := range tree.Nodes {
						if missing[nd.Owner] {
							wantSkipped++
							break
						}
					}
				}
				for _, rows := range [][]int32{nil, randRows(rng, 9, 300), {7, 7, 0, 299, 7}} {
					full := make(map[RouteKey][]byte)
					for p := 0; p < passive; p++ {
						nodes, err := ScorePlacements(m.Parties[p], parts[p], rows)
						if err != nil {
							t.Fatal(err)
						}
						for _, nb := range nodes {
							full[RouteKey{Party: p, Tree: nb.Tree, Node: nb.Node}] = nb.Bits
						}
					}
					want, _, err := RoutePartialMargins(b, m.LearningRate, m.BaseScore, parts[passive], rows, full, missing)
					if err != nil {
						t.Fatal(err)
					}
					got, skipped, _ := pruneRound(t, m, parts, rows, missing)
					skips += skipped
					if skipped != wantSkipped {
						t.Errorf("missing %v: %d trees skipped, want %d", missing, skipped, wantSkipped)
					}
					if !sameFloats(got, want) {
						t.Fatalf("missing %v, %d rows: pruned margins %v, full bitmaps %v", missing, len(got), got, want)
					}
				}
			}
			if skips == 0 {
				t.Error("no round skipped a tree; the model has no passive splits to miss")
			}
			if got, _, _ := pruneRound(t, m, parts, nil, nil); !sameFloats(got, mustPredict(t, m, parts)) {
				t.Error("a full round differs from PredictAll")
			}
		})
	}
}

func mustPredict(t *testing.T, m *FederatedModel, parts []*dataset.Dataset) []float64 {
	t.Helper()
	want, err := m.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// handPrunedModel is a three-tree, two-party model over 16 rows. Party 0's
// feature 0 is the row index + 1 and feature 1 is (7·row mod 16) + 1.
//
//	tree 0: A:1 f0 ≤ 8.5 → left A:2 (f1 ≤ 8.5), right B:3 → left A:6 (f1 ≤ 4.5)
//	tree 1: B only
//	tree 2: A:1 f1 ≤ 10.5
//
// Node 2 is reached by the 8 rows node 1 sends left, node 6 — below B's
// node 3 — by the 8 it sends right: tree 0 answers 16 + 8 + 8 bits (4
// bytes, against 6 for three full bitmaps), tree 2 16 bits, tree 1
// nothing. By hand, least significant bit first: node 1 sends rows 0–7
// left (ff 00); of those, node 2 sends 0, 1, 3, 5, 7 left (ab); of rows
// 8–15, node 6 sends only row 14 left (40); and tree 2 sends rows 0, 1, 3,
// 5, 7, 8, 10, 12, 14, 15 left (ab d5).
func handPrunedModel(t *testing.T) (*FederatedModel, []*dataset.Dataset) {
	t.Helper()
	a, bRows := make([][]float64, 16), make([][]float64, 16)
	for r := range a {
		a[r] = []float64{float64(r + 1), float64(7*r%16 + 1)}
		bRows[r] = []float64{float64(r%5 + 1)}
	}
	aData, err := dataset.FromDense(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	bData, err := dataset.FromDense(bRows, nil)
	if err != nil {
		t.Fatal(err)
	}
	leaf := func(w float64) *FedNode { return &FedNode{Owner: OwnerLeaf, Weight: w} }
	bt0 := NewFedTree(1)
	bt0.Nodes[1] = &FedNode{Owner: 0, Left: 2, Right: 3}
	bt0.Nodes[2] = &FedNode{Owner: 0, Left: 4, Right: 5}
	bt0.Nodes[3] = &FedNode{Owner: 1, Feature: 0, Threshold: 2.5, Left: 6, Right: 7}
	bt0.Nodes[6] = &FedNode{Owner: 0, Left: 8, Right: 9}
	for id, w := range map[int32]float64{4: 1, 5: -1, 7: 0.5, 8: 2, 9: -2} {
		bt0.Nodes[id] = leaf(w)
	}
	bt1 := NewFedTree(1)
	bt1.Nodes[1] = &FedNode{Owner: 1, Feature: 0, Threshold: 3.5, Left: 2, Right: 3}
	bt1.Nodes[2], bt1.Nodes[3] = leaf(0.25), leaf(-0.25)
	bt2 := NewFedTree(1)
	bt2.Nodes[1] = &FedNode{Owner: 0, Left: 2, Right: 3}
	bt2.Nodes[2], bt2.Nodes[3] = leaf(3), leaf(-3)

	at0 := NewFedTree(1)
	at0.Nodes[1] = &FedNode{Owner: 0, Feature: 0, Threshold: 8.5, Left: 2, Right: 3}
	at0.Nodes[2] = &FedNode{Owner: 0, Feature: 1, Threshold: 8.5, Left: 4, Right: 5}
	at0.Nodes[6] = &FedNode{Owner: 0, Feature: 1, Threshold: 4.5, Left: 8, Right: 9}
	at2 := NewFedTree(1)
	at2.Nodes[1] = &FedNode{Owner: 0, Feature: 1, Threshold: 10.5, Left: 2, Right: 3}
	m := &FederatedModel{
		Parties: []*PartyModel{
			{Party: 0, Trees: []*FedTree{at0, NewFedTree(1), at2}},
			{Party: 1, Trees: []*FedTree{bt0, bt1, bt2}},
		},
		LearningRate: 0.5, BaseScore: 0.1,
	}
	return m, []*dataset.Dataset{aData, bData}
}

// TestPrunedAnswerBytes pins the size of a pruned answer on a model small
// enough to count by hand (handPrunedModel), and its margins.
func TestPrunedAnswerBytes(t *testing.T) {
	m, parts := handPrunedModel(t)
	bt, err := CompileFragment(m.Parties[1])
	if err != nil {
		t.Fatal(err)
	}
	owned, err := CompileOwnedSplits(m.Parties[0])
	if err != nil {
		t.Fatal(err)
	}
	table, err := owned.Bind(bt.Reach(0))
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := table.Score(parts[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(nodes); got != "[{0 1 [255 0 171 64]} {2 1 [171 213]}]" {
		t.Errorf("answer %s, want tree 0's 4 bytes and tree 2's 2, each under root 1", got)
	}
	body := MsgScoreResponse{Round: 1, Version: 1, Party: 0, Nodes: nodes}.AppendTo(nil)
	full, err := ScorePlacements(m.Parties[0], parts[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	v1 := MsgScoreResponse{Round: 1, Version: 1, Party: 0, Nodes: full}.AppendTo(nil)
	if len(body) != 17 || len(v1) != 25 {
		t.Errorf("response body %d bytes (full bitmaps %d), want 17 (25)", len(body), len(v1))
	}
	got, _, bitBytes := pruneRound(t, m, parts, nil, nil)
	if bitBytes != 6 {
		t.Errorf("%d bytes of routing bits, want 6", bitBytes)
	}
	if !sameFloats(got, mustPredict(t, m, parts)) {
		t.Errorf("pruned margins %v differ from PredictAll", got)
	}
}

// TestBindRefusesDisagreeingReach: reach links that do not fit the
// fragment — a split it does not own, one listed twice, an Above that is
// not listed before it, a parent-child pair of the party's splits linked
// otherwise, a tree out of order, another root — are refused with
// ErrModelStructure, and so are broken links in the fragment itself. A
// table compiled from Party B's fragment binds nothing.
func TestBindRefusesDisagreeingReach(t *testing.T) {
	m, _ := handPrunedModel(t)
	bt, err := CompileFragment(m.Parties[1])
	if err != nil {
		t.Fatal(err)
	}
	owned, err := CompileOwnedSplits(m.Parties[0])
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		edit func([]ReachTree)
		want string
	}{
		"not its split": {func(r []ReachTree) { r[0].Splits[1].Node = 3 }, "tree 0 node 3, which is not its split"},
		"listed twice":  {func(r []ReachTree) { r[0].Splits[2].Node = 2 }, "tree 0 node 2, which is not its split or is listed twice"},
		"above later":   {func(r []ReachTree) { r[0].Splits[1].Above = 2 }, "tree 0 node 2 points at split 2"},
		"wrong side":    {func(r []ReachTree) { r[0].Splits[1].Left = false }, "tree 0 node 2 disagrees with the fragment"},
		"unlinked":      {func(r []ReachTree) { r[0].Splits[1].Above = -1 }, "tree 0 node 2 disagrees with the fragment"},
		"out of order":  {func(r []ReachTree) { r[0], r[1] = r[1], r[0] }, "reach lists tree 0"},
		"other root":    {func(r []ReachTree) { r[1].Root = 4 }, "reach lists tree 2 (root 4"},
	} {
		reach := bt.Reach(0)
		c.edit(reach)
		_, err := owned.Bind(reach)
		if !errors.Is(err, ErrModelStructure) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Bind returned %v, want ErrModelStructure with %q", name, err, c.want)
		}
	}

	if _, err := bt.Bind(bt.Reach(0)); err == nil {
		t.Error("Party B's own table bound reach links; only a passive fragment's answers rounds")
	}

	for name, c := range map[string]struct {
		edit func(*FedTree)
		want string
	}{
		"self child":   {func(tr *FedTree) { tr.Nodes[2].Left = 2 }, "tree 0 node 2 reaches node 2 twice"},
		"shared child": {func(tr *FedTree) { tr.Nodes[6].Left = 4 }, "tree 0 node 6 reaches node 4 twice"},
		"cycle":        {func(tr *FedTree) { tr.Nodes[2].Left = 1 }, "tree 0 node 1 reaches node 1 twice"},
	} {
		frag := handPrunedFragmentCopy(m.Parties[0])
		c.edit(frag.Trees[0])
		_, err := CompileOwnedSplits(frag)
		if !errors.Is(err, ErrModelStructure) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CompileOwnedSplits returned %v, want ErrModelStructure with %q", name, err, c.want)
		}
	}
}

// handPrunedFragmentCopy deep-copies a fragment's nodes so a test can
// break one copy.
func handPrunedFragmentCopy(frag *PartyModel) *PartyModel {
	out := &PartyModel{Party: frag.Party}
	for _, tr := range frag.Trees {
		cp := &FedTree{Root: tr.Root, Nodes: make(map[int32]*FedNode, len(tr.Nodes))}
		for id, nd := range tr.Nodes {
			n := *nd
			cp.Nodes[id] = &n
		}
		out.Trees = append(out.Trees, cp)
	}
	return out
}
