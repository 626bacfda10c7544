package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"vf2boost/internal/dataset"
)

// The compiled routing tables must agree with the map walkers they
// replaced (routes_oracle_test.go) bit for bit: margins compare with ==
// and bitmaps byte for byte.

// scoreValues is the value alphabet of the random shards and thresholds:
// small enough that stored values tie with thresholds often, with the
// infinities and NaN at both ends.
var scoreValues = []float64{math.Inf(-1), -1, 0, 0.5, 1, 2, math.Inf(1), math.NaN()}

func pickValue(rng *rand.Rand) float64 {
	if rng.Intn(16) == 0 {
		return scoreValues[len(scoreValues)-1] // NaN, rarely
	}
	if rng.Intn(4) == 0 {
		return rng.NormFloat64()
	}
	return scoreValues[rng.Intn(len(scoreValues)-1)]
}

// randParts builds one shard per party, cols features each, every value
// present with probability 0.6 (absent values route left).
func randParts(t testing.TB, rng *rand.Rand, parties, rows, cols int) []*dataset.Dataset {
	t.Helper()
	parts := make([]*dataset.Dataset, parties)
	for p := range parts {
		b := dataset.NewBuilder(cols)
		for i := 0; i < rows; i++ {
			var idx []int32
			var vals []float64
			for j := 0; j < cols; j++ {
				if rng.Float64() < 0.6 {
					idx = append(idx, int32(j))
					vals = append(vals, pickValue(rng))
				}
			}
			if err := b.AddRowUnlabeled(idx, vals); err != nil {
				t.Fatal(err)
			}
		}
		parts[p] = b.Build()
	}
	return parts
}

// randFedModel builds a random glued model in the shape training leaves:
// Party B (the last fragment) holds the structure, with node ids drawn
// with gaps like the holes aborted optimistic children leave; every
// passive fragment holds a placeholder root leaf plus only the splits it
// owns, and sometimes a split B never routes through. A split may read a
// feature one past the shard's columns, which is always missing.
func randFedModel(rng *rand.Rand, parties, trees, depth, cols, outputs int) *FederatedModel {
	last := parties - 1
	frags := make([]*PartyModel, parties)
	for p := range frags {
		frags[p] = &PartyModel{Party: p}
	}
	for t := 0; t < trees; t++ {
		bTree := &FedTree{Nodes: map[int32]*FedNode{}, Root: 1}
		for p := 0; p < last; p++ {
			frags[p].Trees = append(frags[p].Trees, NewFedTree(1))
		}
		next := int32(1)
		var grow func(id int32, d int)
		grow = func(id int32, d int) {
			if d == depth || (d > 0 && rng.Intn(5) == 0) {
				bTree.Nodes[id] = &FedNode{Owner: OwnerLeaf, Weight: rng.NormFloat64()}
				return
			}
			next += 1 + int32(rng.Intn(3))
			l := next
			next += 1 + int32(rng.Intn(3))
			r := next
			owner := rng.Intn(parties)
			f, thr := int32(rng.Intn(cols+1)), pickValue(rng)
			if owner == last {
				bTree.Nodes[id] = &FedNode{Owner: owner, Feature: f, Threshold: thr, Left: l, Right: r}
			} else {
				bTree.Nodes[id] = &FedNode{Owner: owner, Left: l, Right: r}
				frags[owner].Trees[t].Nodes[id] = &FedNode{Owner: owner, Feature: f, Threshold: thr, Left: l, Right: r}
			}
			grow(l, d+1)
			grow(r, d+1)
		}
		grow(1, 0)
		if last > 0 && rng.Intn(2) == 0 {
			p := rng.Intn(last)
			next += 7
			frags[p].Trees[t].Nodes[next] = &FedNode{Owner: p, Feature: int32(rng.Intn(cols)), Threshold: pickValue(rng)}
		}
		frags[last].Trees = append(frags[last].Trees, bTree)
	}
	return &FederatedModel{
		Parties:      frags,
		LearningRate: 0.1 + rng.Float64()/7,
		BaseScore:    rng.NormFloat64(),
		NumOutputs:   outputs,
	}
}

// randRows draws n round positions from [0, rows): duplicates and any
// order.
func randRows(rng *rand.Rand, n, rows int) []int32 {
	out := make([]int32, n)
	for k := range out {
		out[k] = int32(rng.Intn(rows))
	}
	return out
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameBits(a, b []PredictNodeBits) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d bitmaps, oracle has %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Tree != b[i].Tree || a[i].Node != b[i].Node || !bytes.Equal(a[i].Bits, b[i].Bits) {
			return fmt.Errorf("bitmap %d is tree %d node %d %x, oracle has tree %d node %d %x",
				i, a[i].Tree, a[i].Node, a[i].Bits, b[i].Tree, b[i].Node, b[i].Bits)
		}
	}
	return nil
}

// checkProtocolRound runs one scoring round both ways — every passive
// party's bitmaps, then B's margins with the given parties missing — and
// reports the first difference from the oracle.
func checkProtocolRound(m *FederatedModel, parts []*dataset.Dataset, rows []int32, missing map[int]bool) error {
	last := len(parts) - 1
	routes := make(map[RouteKey][]byte)
	for p := 0; p < last; p++ {
		got, err := ScorePlacements(m.Parties[p], parts[p], rows)
		if err != nil {
			return err
		}
		want, err := oracleScorePlacements(m.Parties[p], parts[p], rows)
		if err != nil {
			return err
		}
		if err := sameBits(got, want); err != nil {
			return fmt.Errorf("party %d: %v", p, err)
		}
		for _, nb := range got {
			routes[RouteKey{Party: p, Tree: nb.Tree, Node: nb.Node}] = nb.Bits
		}
	}
	b := m.Parties[last]
	got, skipped, err := RoutePartialMargins(b, m.LearningRate, m.BaseScore, parts[last], rows, routes, missing)
	if err != nil {
		return err
	}
	want, wantSkipped, err := oracleRouteMargins(b, m.LearningRate, m.BaseScore, parts[last], rows, routes, missing)
	if err != nil {
		return fmt.Errorf("oracle: %v", err)
	}
	if skipped != wantSkipped || !sameFloats(got, want) {
		return fmt.Errorf("missing %v: %d skipped, margins %v; oracle %d skipped, %v", missing, skipped, got, wantSkipped, want)
	}
	return nil
}

// TestRouteTablesMatchOracle compares every routing entry point with the
// map walkers over randomized fragments of two and three parties: the
// glued model's margins (full and prefix, and row by row), and scoring
// rounds — passive bitmaps and B's margins — over duplicated, out-of-order
// rows spanning several gather blocks, with and without missing parties.
func TestRouteTablesMatchOracle(t *testing.T) {
	const rows, cols = 600, 4
	for _, parties := range []int{2, 3} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed*10 + int64(parties)))
			parts := randParts(t, rng, parties, rows, cols)
			m := randFedModel(rng, parties, 8, 6, cols, 1)
			trees := len(m.Parties[parties-1].Trees)
			name := fmt.Sprintf("parties=%d seed=%d", parties, seed)

			want, err := oraclePredict(m, parts, trees, 1)
			if err != nil {
				t.Fatalf("%s: oracle: %v", name, err)
			}
			got, err := m.PredictAll(parts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !sameFloats(got, want[0]) {
				t.Fatalf("%s: PredictAll differs from the oracle", name)
			}
			for _, k := range []int{0, 1, trees / 2, trees - 1} {
				want, err := oraclePredict(m, parts, k, 1)
				if err != nil {
					t.Fatal(err)
				}
				got, err := m.PredictAllPrefix(parts, k)
				if err != nil {
					t.Fatal(err)
				}
				if !sameFloats(got, want[0]) {
					t.Fatalf("%s: PredictAllPrefix(%d) differs from the oracle", name, k)
				}
			}
			for _, i := range []int{0, 257, rows - 1} {
				got, err := m.PredictMargin(parts, i)
				if err != nil {
					t.Fatal(err)
				}
				if got != want[0][i] {
					t.Fatalf("%s: PredictMargin(%d) = %v, oracle %v", name, i, got, want[0][i])
				}
			}

			missingSets := []map[int]bool{nil, {0: true}}
			if parties == 3 {
				missingSets = append(missingSets, map[int]bool{1: true}, map[int]bool{0: true, 1: true})
			}
			for _, n := range []int{0, 1, 7, 8, 9, 300, 700} {
				round := randRows(rng, n, rows)
				for _, missing := range missingSets {
					if err := checkProtocolRound(m, parts, round, missing); err != nil {
						t.Fatalf("%s: %d-row round: %v", name, n, err)
					}
				}
			}
			if err := checkProtocolRound(m, parts, nil, nil); err != nil {
				t.Fatalf("%s: whole-shard round: %v", name, err)
			}
		}
	}
}

// TestRouteTablesMatchOracleMultiOutput: a k-output model's class
// margins, tree t adding to class t mod k.
func TestRouteTablesMatchOracleMultiOutput(t *testing.T) {
	for _, parties := range []int{2, 3} {
		rng := rand.New(rand.NewSource(int64(parties) + 100))
		parts := randParts(t, rng, parties, 300, 3)
		m := randFedModel(rng, parties, 9, 5, 3, 3)
		want, err := oraclePredict(m, parts, 9, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.PredictAllOutputs(parts)
		if err != nil {
			t.Fatal(err)
		}
		for c := range want {
			if !sameFloats(got[c], want[c]) {
				t.Fatalf("parties=%d: class %d margins differ from the oracle", parties, c)
			}
		}
	}
}

// TestRouteTablesMatchOracleTrainedModel: a model the optimistic protocol
// trained (its arena has the holes of aborted children) over a sparse
// shard routes like the oracle, in-process and as a scoring round.
func TestRouteTablesMatchOracleTrainedModel(t *testing.T) {
	_, parts := twoPartyData(t, 400, 5, 4, 0.6, false, 87)
	cfg := quickConfig(SchemeMock)
	cfg.Trees = 4
	cfg.MaxDepth = 4
	m, _ := trainFed(t, parts, cfg)
	want, err := oraclePredict(m, parts, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFloats(got, want[0]) {
		t.Fatal("PredictAll differs from the oracle on a trained model")
	}
	rng := rand.New(rand.NewSource(87))
	for _, missing := range []map[int]bool{nil, {0: true}} {
		if err := checkProtocolRound(m, parts, randRows(rng, 300, 400), missing); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompileFragmentRefusesBrokenStructure: a missing root, a dangling
// child, a cycle, a path past the depth bound and an invalid owner are
// ErrModelStructure errors naming the tree and node.
func TestCompileFragmentRefusesBrokenStructure(t *testing.T) {
	deep := NewFedTree(1)
	for id := int32(1); id <= maxRouteDepth+1; id++ {
		deep.Nodes[id] = &FedNode{Owner: 1, Left: id + 1, Right: 1000 + id}
		deep.Nodes[1000+id] = &FedNode{Owner: OwnerLeaf}
	}
	deep.Nodes[maxRouteDepth+2] = &FedNode{Owner: OwnerLeaf}
	for name, c := range map[string]struct {
		edit func(*FedTree)
		want string
	}{
		"missing root":   {func(tr *FedTree) { tr.Root = 9 }, "tree 1 root 9 missing"},
		"dangling child": {func(tr *FedTree) { delete(tr.Nodes, 3) }, "tree 1 node 1 has dangling child 3"},
		"cycle":          {func(tr *FedTree) { tr.Nodes[1].Left = 1 }, "tree 1 node 1 reaches node 1 twice"},
		"invalid owner":  {func(tr *FedTree) { tr.Nodes[1].Owner = -4 }, "tree 1 node 1 has invalid owner -4"},
		"too deep":       {func(tr *FedTree) { *tr = *deep }, fmt.Sprintf("tree 1 node %d lies deeper than %d", maxRouteDepth+1, maxRouteDepth)},
	} {
		frag := handFragment()
		c.edit(frag.Trees[1])
		_, err := CompileFragment(frag)
		if !errors.Is(err, ErrModelStructure) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CompileFragment returned %v, want ErrModelStructure with %q", name, err, c.want)
		}
	}
	if _, err := CompileFragment(handFragment()); err != nil {
		t.Errorf("sound fragment refused: %v", err)
	}
}

// TestRouteMarginsRefusesWrongLengthBitmap: a bitmap that is not
// ⌈rows/8⌉ bytes — here 1 byte for a 64-row round — is an ErrRoutingBits
// naming the party, tree and node, not an index past its end.
func TestRouteMarginsRefusesWrongLengthBitmap(t *testing.T) {
	frag := handFragment()
	bData, err := dataset.Generate(dataset.GenOptions{Rows: 64, Cols: 2, Density: 1, Dense: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, bits := range [][]byte{make([]byte, 1), make([]byte, 9)} {
		routes := map[RouteKey][]byte{{Party: 0, Tree: 1, Node: 1}: bits}
		_, err := RouteMargins(frag, 0.5, 0, bData, nil, routes)
		if !errors.Is(err, ErrRoutingBits) || !strings.Contains(err.Error(), "party 0 sent") || !strings.Contains(err.Error(), "tree 1 node 1") {
			t.Errorf("%d-byte bitmap for 64 rows: %v, want ErrRoutingBits naming party 0, tree 1, node 1", len(bits), err)
		}
	}
}

// checkPrunedRound plays one scoring round in its wire form: every
// passive party whose fragment compiles and binds B's reach links answers
// with pruned per-tree bits, and B expands and routes them. The margins
// must be those of the full bitmaps, with the parties that could not bind
// missing as well. Then party 0 sends an answer made of fuzz bytes: B must
// file it or refuse it with an ErrRoutingBits naming the party and the
// tree, and a filed one must route or be refused, never panic.
func checkPrunedRound(t *testing.T, m *FederatedModel, parts []*dataset.Dataset, rows []int32, missing map[int]bool, in *fuzzBytes) {
	t.Helper()
	last := len(parts) - 1
	b := m.Parties[last]
	bt, err := CompileFragment(b)
	if err != nil {
		return // the full round's checks cover a refused structure
	}
	out := make(map[int]bool)
	for p := range missing {
		out[p] = true
	}
	rb := bt.NewRoundBits(len(rows))
	full := make(map[RouteKey][]byte)
	for p := 0; p < last; p++ {
		owned, err := CompileOwnedSplits(m.Parties[p])
		if err == nil {
			owned, err = owned.Bind(bt.Reach(p))
		}
		if err != nil {
			if !errors.Is(err, ErrModelStructure) {
				t.Fatalf("party %d: untyped refusal %v", p, err)
			}
			out[p] = true
			continue
		}
		answer, err := owned.Score(parts[p], rows)
		if err != nil {
			t.Fatalf("party %d: %v", p, err)
		}
		if err := rb.Place(p, answer); err != nil {
			t.Fatalf("party %d's own answer refused: %v", p, err)
		}
		nodes, _ := ScorePlacements(m.Parties[p], parts[p], rows)
		for _, nb := range nodes {
			full[RouteKey{Party: p, Tree: nb.Tree, Node: nb.Node}] = nb.Bits
		}
	}
	got, skipped, err := bt.RouteMargins(m.LearningRate, m.BaseScore, parts[last], rows, rb, out)
	want, wantSkipped, wantErr := RoutePartialMargins(b, m.LearningRate, m.BaseScore, parts[last], rows, full, out)
	switch {
	case (err != nil) != (wantErr != nil):
		t.Fatalf("pruned round: %v; full bitmaps: %v", err, wantErr)
	case err != nil && !typedRouteError(err):
		t.Fatalf("pruned round: untyped error %v", err)
	case err == nil && (skipped != wantSkipped || !sameFloats(got, want)):
		t.Fatalf("pruned round: %d skipped, margins %v; full bitmaps: %d skipped, %v", skipped, got, wantSkipped, want)
	}

	var blob []PredictNodeBits
	for k := in.next() % 4; k > 0; k-- {
		nb := PredictNodeBits{Tree: in.next()%5 - 1, Node: int32(in.next()%6 - 1), Bits: make([]byte, in.next()%6)}
		for i := range nb.Bits {
			nb.Bits[i] = byte(in.next())
		}
		blob = append(blob, nb)
	}
	rb = bt.NewRoundBits(len(rows))
	if err := rb.Place(0, blob); err != nil {
		if !errors.Is(err, ErrRoutingBits) || !strings.Contains(err.Error(), "party 0 sent") || !strings.Contains(err.Error(), "tree") {
			t.Fatalf("arbitrary answer refused with %v, want an ErrRoutingBits naming party 0 and the tree", err)
		}
		return
	}
	if _, _, err := bt.RouteMargins(m.LearningRate, m.BaseScore, parts[last], rows, rb, missing); err != nil && !typedRouteError(err) {
		t.Fatalf("arbitrary answer: untyped error %v", err)
	}
}

// fuzzBytes hands out fuzz input a byte at a time, zeros once it runs out.
type fuzzBytes []byte

func (f *fuzzBytes) next() int {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return int(b)
}

// fuzzModel decodes an arbitrary fragment shape: B's arena of random ids,
// owners (including out-of-range and invalid ones), children (dangling,
// cyclic, shared) and roots; passive fragments that hold some of the
// splits B says they own, sometimes missing a tree.
func fuzzModel(in *fuzzBytes) *FederatedModel {
	parties := 2 + in.next()%2
	last := parties - 1
	trees := 1 + in.next()%3
	frags := make([]*PartyModel, parties)
	for p := range frags {
		frags[p] = &PartyModel{Party: p}
	}
	for t := 0; t < trees; t++ {
		bTree := &FedTree{Nodes: map[int32]*FedNode{}, Root: int32(in.next() % 4)}
		for p := 0; p < last; p++ {
			frags[p].Trees = append(frags[p].Trees, NewFedTree(1))
		}
		for count := in.next() % 12; count > 0; count-- {
			id := int32(in.next() % 10)
			owner := in.next()%(parties+2) - 1
			if owner == parties && in.next()%2 == 0 {
				owner = -3
			}
			nd := &FedNode{Owner: owner, Left: int32(in.next() % 10), Right: int32(in.next() % 10)}
			feature, thr := int32(in.next()%4), scoreValues[in.next()%len(scoreValues)]
			switch {
			case owner == OwnerLeaf:
				nd.Weight = float64(int8(in.next())) / 8
			case owner == last:
				nd.Feature, nd.Threshold = feature, thr
			case owner >= 0 && owner < last && in.next()%8 != 0:
				frags[owner].Trees[t].Nodes[id] = &FedNode{Owner: owner, Feature: feature, Threshold: thr, Left: nd.Left, Right: nd.Right}
			}
			bTree.Nodes[id] = nd
		}
		frags[last].Trees = append(frags[last].Trees, bTree)
	}
	for p := 0; p < last; p++ {
		if in.next()%8 == 0 {
			frags[p].Trees = frags[p].Trees[:len(frags[p].Trees)-1]
		}
	}
	return &FederatedModel{Parties: frags, LearningRate: 0.3, BaseScore: 0.25, NumOutputs: 1 + in.next()%2}
}

// typedRouteError reports whether err is one of the routing errors a
// malformed fragment or answer may produce.
func typedRouteError(err error) bool {
	return errors.Is(err, ErrModelStructure) || errors.Is(err, ErrRoutingBits)
}

// FuzzRouteTables: over arbitrary fragment shapes, rounds and bitmaps,
// the compiled tables never panic, and they either agree with the oracle
// exactly or refuse with ErrModelStructure or ErrRoutingBits. Every round
// also goes over the wire form (checkPrunedRound): the pruned answers
// route exactly as the full bitmaps do, and an arbitrary answer routes or
// is refused.
func FuzzRouteTables(f *testing.F) {
	f.Add([]byte{0, 0, 1, 5, 0, 1, 2, 3, 1, 2, 0, 1, 1, 2, 0, 0, 8, 2, 1, 1, 9, 0, 4, 5, 6})
	f.Add([]byte{1, 2, 3, 11, 1, 2, 1, 3, 0, 5, 2, 3, 4, 1, 2, 7, 3, 1, 4, 5, 1, 6, 7, 9, 9, 0, 17, 3, 1})
	f.Add([]byte("\x01\x02\x00\x0b\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f"))
	f.Add(bytes.Repeat([]byte{3, 1, 4, 1, 5, 9, 2, 6}, 12))
	// A sound two-party stump: party 0 splits the root, B holds the leaves.
	f.Add([]byte{0, 0, 1, 3, 1, 1, 2, 3, 0, 3, 1, 2, 0, 0, 0, 0, 0, 8, 3, 0, 0, 0, 0, 0, 248, 1, 0, 5, 20, 3, 0})
	rng := rand.New(rand.NewSource(5))
	shards := map[int][]*dataset.Dataset{2: randParts(f, rng, 2, 20, 3), 3: randParts(f, rng, 3, 20, 3)}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		m := fuzzModel(&in)
		parts := shards[len(m.Parties)]
		last := len(parts) - 1
		trees := len(m.Parties[last].Trees)

		// The glued model.
		got, err := m.PredictAllOutputs(parts)
		if err != nil {
			if !typedRouteError(err) {
				t.Fatalf("PredictAllOutputs: untyped error %v", err)
			}
		} else {
			want, err := oraclePredict(m, parts, trees, m.Outputs())
			if err != nil {
				t.Fatalf("compiled tables routed a model the oracle refuses (%v)", err)
			}
			for c := range want {
				if !sameFloats(got[c], want[c]) {
					t.Fatalf("class %d margins %v, oracle %v", c, got[c], want[c])
				}
			}
		}

		// A scoring round, with answers possibly dropped or cut short.
		rows := randRows(rand.New(rand.NewSource(int64(in.next()))), in.next()%24, parts[0].Rows())
		routes := make(map[RouteKey][]byte)
		for p := 0; p < last; p++ {
			nodes, err := ScorePlacements(m.Parties[p], parts[p], rows)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := oracleScorePlacements(m.Parties[p], parts[p], rows)
			if err := sameBits(nodes, want); err != nil {
				t.Fatalf("party %d: %v", p, err)
			}
			for _, nb := range nodes {
				switch in.next() % 16 {
				case 0:
					continue // never answered
				case 1:
					nb.Bits = append(nb.Bits, 0)
				case 2:
					if len(nb.Bits) > 0 {
						nb.Bits = nb.Bits[:len(nb.Bits)-1]
					}
				}
				routes[RouteKey{Party: p, Tree: nb.Tree, Node: nb.Node}] = nb.Bits
			}
		}
		missing := map[int]bool{}
		for p, mask := 0, in.next(); p < last; p++ {
			if mask&(1<<p) != 0 {
				missing[p] = true
			}
		}
		checkPrunedRound(t, m, parts, rows, missing, &in)
		b := m.Parties[last]
		margins, skipped, err := RoutePartialMargins(b, m.LearningRate, m.BaseScore, parts[last], rows, routes, missing)
		if err != nil {
			if !typedRouteError(err) {
				t.Fatalf("RoutePartialMargins: untyped error %v", err)
			}
			return
		}
		want, wantSkipped, err := oracleRouteMargins(b, m.LearningRate, m.BaseScore, parts[last], rows, routes, missing)
		if err != nil {
			t.Fatalf("compiled tables routed a round the oracle refuses (%v)", err)
		}
		if skipped != wantSkipped || !sameFloats(margins, want) {
			t.Fatalf("%d skipped, margins %v; oracle %d skipped, %v", skipped, margins, wantSkipped, want)
		}
	})
}
