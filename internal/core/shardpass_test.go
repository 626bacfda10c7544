package core

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vf2boost/internal/dataset"
	"vf2boost/internal/gbdt"
	"vf2boost/internal/he"
	"vf2boost/internal/ooc"
	"vf2boost/internal/paillier"
)

// shardedMatrix cuts an in-memory matrix into fixed-height shards — the
// scheduling harness of the pass tests: no disk and no cache, so whatever
// differs from the unsharded matrix is the pass's doing. onShard runs at
// every shard visit.
type shardedMatrix struct {
	gbdt.BinView
	chunk   int
	onShard func(k int)
	visits  atomic.Int64
}

func (v *shardedMatrix) NumShards() int { return (v.Rows() + v.chunk - 1) / v.chunk }

func (v *shardedMatrix) ShardRowRange(k int) (int, int) {
	return k * v.chunk, min((k+1)*v.chunk, v.Rows())
}

func (v *shardedMatrix) Shard(k int) (gbdt.BinView, error) {
	v.visits.Add(1)
	if v.onShard != nil {
		v.onShard(k)
	}
	return v.BinView, nil
}

var _ gbdt.ShardedView = (*shardedMatrix)(nil)

// passNodes are the instance lists the pass tests route and accumulate:
// an empty node, a node inside one shard, one row, nodes spanning every
// shard densely and sparsely.
func passNodes(rows, chunk int) map[string][]int32 {
	nodes := map[string][]int32{
		"empty":     nil,
		"one-shard": nil,
		"one-row":   {int32(rows - 1)},
		"all":       allInstances(rows),
		"sparse":    nil,
	}
	for i := chunk + 3; i < 2*chunk-5; i += 2 {
		nodes["one-shard"] = append(nodes["one-shard"], int32(i))
	}
	for i := 1; i < rows; i += 7 {
		nodes["sparse"] = append(nodes["sparse"], int32(i))
	}
	return nodes
}

// TestRouteNodesMatchesPerNode: one placement pass over all nodes leaves
// every node the bitmap and child lists a walk of its own list leaves.
func TestRouteNodesMatchesPerNode(t *testing.T) {
	const rows, chunk = 300, 64
	b := newBareActiveParty(t, rows, 4, 92)
	nodes := passNodes(rows, chunk)
	for _, workers := range []int{1, 2, 4} {
		for _, view := range []gbdt.BinView{b.view, &shardedMatrix{BinView: b.view, chunk: chunk}} {
			names := []string{"nothing to place"}
			splits := []*nodeSplit{nil}
			for name, insts := range nodes {
				for feature := int32(0); feature < 2; feature++ {
					names = append(names, fmt.Sprintf("%s/f%d", name, feature))
					splits = append(splits, newNodeSplit(insts, feature, 2))
				}
			}
			if err := make(unitQueue, workers).routeNodes(view, splits); err != nil {
				t.Fatal(err)
			}
			for k, sp := range splits[1:] {
				k++
				bits := make([]bool, len(sp.insts))
				var left, right []int32
				for at, i := range sp.insts {
					goesLeft, err := gbdt.GoesLeft(b.view, i, sp.feature, sp.bin)
					if err != nil {
						t.Fatal(err)
					}
					if bits[at] = goesLeft; goesLeft {
						left = append(left, i)
					} else {
						right = append(right, i)
					}
				}
				if !bytes.Equal(sp.bits, packBitmap(bits)) || !slices.Equal(sp.left, left) || !slices.Equal(sp.right, right) {
					t.Errorf("workers=%d %T %s: pass placed %d left / %d right, the node's own walk %d / %d (bitmaps equal: %v)",
						workers, view, names[k], len(sp.left), len(sp.right), len(left), len(right), bytes.Equal(sp.bits, packBitmap(bits)))
				}
			}
			if sv, ok := view.(*shardedMatrix); ok && sv.visits.Load() != int64(sv.NumShards()) {
				t.Errorf("workers=%d: %d shard visits for one pass over %d shards", workers, sv.visits.Load(), sv.NumShards())
			}
		}
	}
}

// primed feeds a rig its setup and gradient stream and handles both, so
// the party stands where a tree's first decisions find it.
func (r *passiveRig) primed(t *testing.T) *passiveRig {
	t.Helper()
	r.feed(t)
	for i := 0; i < 2; i++ {
		m, err := r.p.link.recv()
		if err != nil {
			t.Fatal(err)
		}
		if s, ok := m.(MsgSetup); ok {
			err = r.p.handleSetup(s)
		} else {
			err = r.p.handlePairBatch(m.(MsgPairBatch))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// shippedNodes schedules the given nodes (in the given order), runs the
// passes and returns the histograms the party sent, by node.
func (r *passiveRig) shippedNodes(t *testing.T, order []int32, lists map[int32][]int32) map[int32]shipped {
	t.Helper()
	r.sentFrames(t) // setup answers and the root
	for _, id := range order {
		r.p.scheduleHist(1, NodeHist{Node: id, Parent: rootID, Sibling: id + 100}, lists[id])
	}
	r.p.startPasses()
	r.p.taskWG.Wait()
	if err := r.p.failed(); err != nil {
		t.Fatal(err)
	}
	nodes := map[int32]shipped{}
	for _, m := range r.sentFrames(t) {
		for _, nh := range m.(MsgHistograms).Nodes {
			nodes[nh.Node] = shipped{nh, r.cts[[2]int{0, int(nh.Node)}]}
		}
	}
	return nodes
}

// TestAccumulatePassMatchesPerNode: nodes built together in passes over a
// sharded view ship the frames they ship when each is swept alone over the
// whole matrix, every shard is visited once per pass, and a node aborted
// while the pass is under way drops out of it without failing anything.
func TestAccumulatePassMatchesPerNode(t *testing.T) {
	const rows, chunk = 300, 64
	const doomed = int32(9)
	lists := map[int32][]int32{doomed: allInstances(rows)}
	order := []int32{doomed}
	for _, name := range []string{"empty", "one-shard", "one-row", "all", "sparse"} {
		id := int32(10 + len(order))
		lists[id] = passNodes(rows, chunk)[name]
		order = append(order, id)
	}
	for _, workers := range []int{1, 2, 4} {
		want := newPassiveRig(t, rows, 4, workers).primed(t).shippedNodes(t, order[1:], lists)

		r := newPassiveRig(t, rows, 4, workers).primed(t)
		sv := &shardedMatrix{BinView: r.p.view, chunk: chunk}
		// The doomed node leads the first pass and is aborted when that pass
		// reaches its third shard.
		sv.onShard = func(k int) {
			if k == 2 {
				r.p.abortChildren(doomed)
			}
		}
		r.p.view = sv
		got := r.shippedNodes(t, order, lists)

		if _, ok := got[doomed]; ok || r.p.stats.AbortedTasks() != 1 {
			t.Errorf("workers=%d: aborted node shipped=%v, aborted tasks %d", workers, ok, r.p.stats.AbortedTasks())
		}
		if len(got) != len(want) || len(want) != len(order)-1 {
			t.Fatalf("workers=%d: %d nodes shipped from the passes, %d swept alone, %d scheduled", workers, len(got), len(want), len(order)-1)
		}
		for id, nh := range want {
			if !reflect.DeepEqual(got[id], nh) {
				t.Errorf("workers=%d: node %d built in a pass differs from the node swept alone", workers, id)
			}
		}
		passes := (len(order) + 2*workers - 1) / (2 * workers)
		if v := sv.visits.Load(); v > int64(passes*sv.NumShards()) {
			t.Errorf("workers=%d: %d shard visits for %d passes over %d shards", workers, v, passes, sv.NumShards())
		}
	}
}

// placing reports whether the calling goroutine is inside a placement pass
// (unitQueue.routeNodes): it tells a placement pass's shard visits from an
// accumulation pass's, which run beside it.
func placing() bool {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".routeNodes") {
			return true
		}
		if !more {
			return false
		}
	}
}

// interleaved splits a node of n instances by position parity, so every
// node of the tree below spans every shard.
func interleaved(node, leftID, rightID int32, n int) NodeDecision {
	bits := make([]bool, n)
	for k := range bits {
		bits[k] = k%2 == 0
	}
	return NodeDecision{Node: node, Action: ActionSplitB, LeftID: leftID, RightID: rightID, Placement: packBitmap(bits), Count: n}
}

// await returns the next n frames the party sends.
func (r *passiveRig) await(t *testing.T, n int) []any {
	t.Helper()
	frames := make([]any, 0, n)
	for len(frames) < n {
		select {
		case b := <-r.out.ch:
			if m := r.decode(t, b); m != nil {
				frames = append(frames, m)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d frames arrived", len(frames), n)
		}
	}
	return frames
}

// correctionsRig runs a passive party over a sharded view through three
// tentative layers — every layer-2 node spanning every shard — and returns
// once the party has shipped their histograms, with the layer's four
// corrections ready to post. onPass runs as each placement pass starts.
func correctionsRig(t *testing.T, onPass func()) (r *passiveRig, dirty []any, done chan error) {
	t.Helper()
	const rows, chunk = 256, 32
	r = newPassiveRig(t, rows, 4, 2)
	r.p.cfg.MaxDepth = 4 // the corrected children are built
	r.p.view = &shardedMatrix{BinView: r.p.view, chunk: chunk, onShard: func(k int) {
		if k == 0 && placing() {
			onPass()
		}
	}}
	r.feed(t,
		MsgDecisions{Tentative: true, Nodes: []NodeDecision{interleaved(rootID, 2, 3, rows)}},
		MsgDecisions{Layer: 1, Tentative: true, Nodes: []NodeDecision{interleaved(2, 4, 5, rows/2), interleaved(3, 6, 7, rows/2)}},
		MsgDecisions{Layer: 2, Tentative: true, Nodes: []NodeDecision{
			interleaved(4, 8, 9, rows/4), interleaved(5, 10, 11, rows/4), interleaved(6, 12, 13, rows/4), interleaved(7, 14, 15, rows/4)}})
	done = make(chan error, 1)
	go func() {
		_, err := r.p.run()
		done <- err
	}()
	r.await(t, 2+1+1+2+4) // ready, resume, the root and one child per split
	for k := int32(0); k < 4; k++ {
		dirty = append(dirty, MsgDirty{Layer: 2, Node: 4 + k, OldLeft: 8 + 2*k, OldRight: 9 + 2*k,
			LeftID: 16 + 2*k, RightID: 17 + 2*k, Feature: k % 4, Bin: 3})
	}
	return r, dirty, done
}

// corrected splits the frames a layer's corrections produced into the
// placements, in arrival order, and the children's histograms by node.
func corrected(t *testing.T, r *passiveRig, frames []any) (placements []MsgPlacement, hists map[int32]shipped) {
	t.Helper()
	hists = map[int32]shipped{}
	for _, f := range frames {
		switch m := f.(type) {
		case MsgPlacement:
			placements = append(placements, m)
		case MsgHistograms:
			nh := m.Nodes[0]
			hists[nh.Node] = shipped{nh, r.cts[[2]int{m.Tree, int(nh.Node)}]}
		default:
			t.Fatalf("unexpected %T", f)
		}
	}
	return placements, hists
}

// TestPassiveCorrectionsSharePass: corrections of one layer that queue up
// while the party places an earlier one are placed together in its next
// pass, and the party answers exactly as it does one correction at a time.
// The first placement pass is held until the other three corrections are
// queued behind it, so two passes place all four; posted one at a time,
// each waiting for the previous placement, they take four.
func TestPassiveCorrectionsSharePass(t *testing.T) {
	finish := func(r *passiveRig, done chan error) {
		t.Helper()
		if err := NewLink(r.in).send(MsgTreeDone{}); err != nil {
			t.Fatal(err)
		}
		if err := NewLink(r.in).send(MsgShutdown{}); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		// The last children's ciphertexts may still be queued behind their
		// headers.
		if rest := r.sentFrames(t); len(rest) != 0 {
			t.Fatalf("the party sent %d more frames", len(rest))
		}
	}

	// One at a time.
	var passes atomic.Int64
	r, dirty, done := correctionsRig(t, func() { passes.Add(1) })
	var frames []any
	for _, d := range dirty {
		if err := NewLink(r.in).send(d); err != nil {
			t.Fatal(err)
		}
		for placed := false; !placed; {
			f := r.await(t, 1)[0]
			_, placed = f.(MsgPlacement)
			frames = append(frames, f)
		}
	}
	frames = append(frames, r.await(t, 2*len(dirty)-len(frames))...)
	finish(r, done)
	wantPlacements, wantHists := corrected(t, r, frames)
	if passes.Load() != int64(len(dirty)) {
		t.Fatalf("one correction at a time took %d placement passes, want %d", passes.Load(), len(dirty))
	}

	// Back to back, the first pass held until the rest are queued.
	entered, release := make(chan struct{}), make(chan struct{})
	passes.Store(0)
	r, dirty, done = correctionsRig(t, func() {
		if passes.Add(1) == 1 {
			close(entered)
			<-release
		}
	})
	if err := NewLink(r.in).send(dirty[0]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the first correction was never placed")
	}
	for _, d := range dirty[1:] {
		if err := NewLink(r.in).send(d); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); len(r.p.frames) < len(dirty)-1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d corrections queued behind the held pass", len(r.p.frames), len(dirty)-1)
		}
	}
	close(release)
	frames = r.await(t, 2*len(dirty))
	finish(r, done)
	placements, hists := corrected(t, r, frames)

	if n := passes.Load(); n > 2 {
		t.Errorf("%d placement passes for one layer's corrections, want at most 2", n)
	}
	if !reflect.DeepEqual(placements, wantPlacements) {
		t.Errorf("placements %v, one at a time %v", nodesOf(placements), nodesOf(wantPlacements))
	}
	if len(wantHists) != len(dirty) || !reflect.DeepEqual(hists, wantHists) {
		t.Errorf("the corrected children's histograms differ from one correction at a time (%d vs %d nodes)", len(hists), len(wantHists))
	}
}

// nodesOf lists the nodes of a run of placements.
func nodesOf(pls []MsgPlacement) []int32 {
	var nodes []int32
	for _, pl := range pls {
		nodes = append(nodes, pl.Node)
	}
	return nodes
}

// TestFederatedLoadsBound is the federated sibling of
// ooc.TestTrainingLoadsBound: every party trains over a store whose cache
// holds one shard (MemBudget 1, readahead off), so whatever a pass does not
// share is a demand load, and the count has a ceiling in passes.
//
// Party B walks its store twice per layer — the layer's own histograms,
// then one placement pass for every node it splits. A passive party walks
// once for the root, once per decisions frame that names splits of its own
// (one frame per layer without speculation, one per correction with
// it) and once per accumulation pass; with one passive
// party and optimism off that is one of each per layer, 2·depth in all, and
// the bound is shards × (2·depth + 2) × trees. What loosens it is stated
// in passes: a relayed placement (one per split of another passive party)
// or a correction reaches a party in a frame of its own and can cost it a
// pass of its own, two where the correction is its own to place. The
// party places the corrections of a layer that are already queued in one
// pass, but how many are queued depends on when each arrives, so the
// correction term stays the worst case of one correction per pass. The
// model is the in-memory session's, byte for byte.
func TestFederatedLoadsBound(t *testing.T) {
	key, err := paillier.GenerateKey(rand.Reader, 512)
	if err != nil {
		t.Fatal(err)
	}
	sequential := func(cfg Config) Config { cfg.OptimisticSplit = false; return cfg }
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"mock/sequential", sequential(quickConfig(SchemeMock))},
		{"mock/optimistic", quickConfig(SchemeMock)},
	} {
		for _, passive := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/passive=%d", tc.name, passive), func(t *testing.T) {
				d, err := dataset.Generate(dataset.GenOptions{Rows: 500, Cols: 4 * (passive + 1), Density: 0.6, Seed: 13})
				if err != nil {
					t.Fatal(err)
				}
				widths := make([]int, passive+1)
				for i := range widths {
					widths[i] = 4
				}
				parts, err := d.VerticalSplit(widths, passive)
				if err != nil {
					t.Fatal(err)
				}
				var opts []SessionOption
				if tc.cfg.Scheme == SchemePaillier {
					opts = append(opts, WithDecryptor(he.NewPaillierFromKey(key, 0)))
				}
				ref, err := NewSession(parts, tc.cfg, opts...)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Train()
				if err != nil {
					t.Fatal(err)
				}

				stores := make([]*ooc.Store, len(parts))
				views := make([]gbdt.BinView, len(parts))
				for i, p := range parts {
					dir := t.TempDir()
					if err := ooc.Build(dir, ooc.NewDatasetSource(p), ooc.BuildOptions{MaxBins: tc.cfg.MaxBins, ChunkRows: 64}); err != nil {
						t.Fatal(err)
					}
					if stores[i], err = ooc.Open(dir, ooc.Options{MemBudget: 1}); err != nil {
						t.Fatal(err)
					}
					defer stores[i].Close()
					views[i] = stores[i]
				}
				labels, err := stores[passive].Labels()
				if err != nil {
					t.Fatal(err)
				}
				s, err := NewViewSession(views, labels, tc.cfg, opts...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.Train()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(saveModel(t, want), saveModel(t, got)) {
					t.Fatal("model over one-shard caches differs from the in-memory session's")
				}
				// Without optimism nothing is aborted, so the passes make
				// exactly the additions the per-node walks make.
				if !tc.cfg.OptimisticSplit && s.Crypto().HAdds() != ref.Crypto().HAdds() {
					t.Errorf("%d homomorphic additions over shards, %d in memory", s.Crypto().HAdds(), ref.Crypto().HAdds())
				}

				passes := int64(tc.cfg.Trees * (2*tc.cfg.MaxDepth + 2))
				if tc.cfg.OptimisticSplit {
					passes += 2 * s.Stats().DirtyNodes()
				} else if passive > 1 {
					passes += s.Stats().SplitsByA()
				}
				for i, st := range stores {
					bound := passes * int64(st.NumShards())
					if loads := st.Stats().Loads; loads > bound {
						t.Errorf("party %d demand-loaded %d shards, bound is %d (%d shards × %d passes; %d dirty nodes, %d passive splits)",
							i, loads, bound, st.NumShards(), passes, s.Stats().DirtyNodes(), s.Stats().SplitsByA())
					} else {
						t.Logf("party %d: %d loads, bound %d", i, loads, bound)
					}
				}
			})
		}
	}
}
