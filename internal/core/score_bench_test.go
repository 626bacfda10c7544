package core

import (
	"fmt"
	"math/rand"
	"testing"

	"vf2boost/internal/dataset"
)

// serveShape builds a glued model and shards at serve_wan's shape: 8000
// aligned rows of 10 + 10 dense features, and 20 complete trees of depth
// 5 whose splits fall to either party at random, thresholds drawn from
// the owner's data.
func serveShape(b *testing.B) (*FederatedModel, []*dataset.Dataset) {
	d, err := dataset.Generate(dataset.GenOptions{Rows: 8000, Cols: 20, Density: 1, Dense: true, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	parts, err := d.VerticalSplit([]int{10, 10}, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	a := &PartyModel{Party: 0}
	bf := &PartyModel{Party: 1}
	for t := 0; t < 20; t++ {
		aTree, bTree := NewFedTree(1), &FedTree{Nodes: map[int32]*FedNode{}, Root: 1}
		next := int32(1)
		var grow func(id int32, depth int)
		grow = func(id int32, depth int) {
			if depth == 5 {
				bTree.Nodes[id] = &FedNode{Owner: OwnerLeaf, Weight: rng.NormFloat64()}
				return
			}
			l, r := next+1, next+2
			next += 2
			owner, f := rng.Intn(2), int32(rng.Intn(10))
			thr := parts[owner].Get(rng.Intn(8000), int(f))
			if owner == 1 {
				bTree.Nodes[id] = &FedNode{Owner: 1, Feature: f, Threshold: thr, Left: l, Right: r}
			} else {
				bTree.Nodes[id] = &FedNode{Owner: 0, Left: l, Right: r}
				aTree.Nodes[id] = &FedNode{Owner: 0, Feature: f, Threshold: thr, Left: l, Right: r}
			}
			grow(l, depth+1)
			grow(r, depth+1)
		}
		grow(1, 0)
		a.Trees = append(a.Trees, aTree)
		bf.Trees = append(bf.Trees, bTree)
	}
	return &FederatedModel{Parties: []*PartyModel{a, bf}, LearningRate: 0.1}, parts
}

// BenchmarkScoreRound measures one online scoring round at serve_wan's
// shape, 32 and 256 random rows, each side on its own: passive is a
// passive party answering the round from its compiled table, route is
// Party B filing that answer and routing the rows through its own.
func BenchmarkScoreRound(b *testing.B) {
	m, parts := serveShape(b)
	active, err := CompileFragment(m.Parties[1])
	if err != nil {
		b.Fatal(err)
	}
	owned, err := CompileOwnedSplits(m.Parties[0])
	if err != nil {
		b.Fatal(err)
	}
	passive, err := owned.Bind(active.Reach(0))
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{32, 256} {
		rows := randRows(rand.New(rand.NewSource(int64(n))), n, parts[0].Rows())
		nodes, err := passive.Score(parts[0], rows)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rows=%d/passive", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := passive.Score(parts[0], rows); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("rows=%d/route", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bits := active.NewRoundBits(n)
				if err := bits.Place(0, nodes); err != nil {
					b.Fatal(err)
				}
				if _, _, err := active.RouteMargins(m.LearningRate, m.BaseScore, parts[1], rows, bits, map[int]bool{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
