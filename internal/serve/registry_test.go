package serve

import (
	"errors"
	"strings"
	"testing"

	"vf2boost/internal/core"
)

func frag(party int) *core.PartyModel {
	return &core.PartyModel{Party: party, Trees: []*core.FedTree{core.NewFedTree(1)}}
}

func TestRegistryPublishAndPin(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.Current(); ok {
		t.Fatal("empty registry reported a current model")
	}
	if err := r.Publish(Model{Version: 0, Fragment: frag(0)}); err == nil {
		t.Error("version 0 accepted")
	}
	if err := r.Publish(Model{Version: 1}); err == nil {
		t.Error("nil fragment accepted")
	}
	if err := r.Publish(Model{Version: 1, Fragment: frag(0), LearningRate: 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Publish(Model{Version: 1, Fragment: frag(0)}); err == nil {
		t.Error("duplicate version accepted")
	}
	cur, ok := r.Current()
	if !ok || cur.Version != 1 {
		t.Fatalf("current = %v, %v", cur.Version, ok)
	}

	// Hot swap: v2 becomes current, v1 stays resolvable (pinning).
	if err := r.Publish(Model{Version: 2, Fragment: frag(0)}); err != nil {
		t.Fatal(err)
	}
	if v := r.CurrentVersion(); v != 2 {
		t.Fatalf("current version = %d after swap", v)
	}
	if _, ok := r.Get(1); !ok {
		t.Error("pinned version 1 no longer resolvable after swap")
	}
	if got := r.Versions(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Versions() = %v", got)
	}

	// Retire: old versions yes, current no.
	if err := r.Retire(2); err == nil {
		t.Error("retiring the current version was allowed")
	}
	if err := r.Retire(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get(1); ok {
		t.Error("retired version still resolvable")
	}
	if err := r.Retire(1); err == nil {
		t.Error("retiring an unknown version was allowed")
	}
}

// TestPublishRefusesBrokenFragment: Party B's fragment is compiled when
// it is published, so a dangling child, a cycle or a missing root is
// refused then, by tree and node, instead of failing every scoring round;
// the registry keeps serving the version it had. A passive fragment holds
// only its own splits (their children live in B's fragment) and publishes
// unless the links among them are broken.
func TestPublishRefusesBrokenFragment(t *testing.T) {
	sound := func() *core.PartyModel {
		tr := core.NewFedTree(1)
		tr.Nodes[1] = &core.FedNode{Owner: 0, Left: 2, Right: 3}
		tr.Nodes[2] = &core.FedNode{Owner: core.OwnerLeaf, Weight: 1}
		tr.Nodes[3] = &core.FedNode{Owner: core.OwnerLeaf, Weight: -1}
		return &core.PartyModel{Party: 1, Trees: []*core.FedTree{core.NewFedTree(1), tr}}
	}
	r := NewRegistry()
	if err := r.Publish(Model{Version: 1, Fragment: sound(), LearningRate: 0.1}); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		edit func(*core.FedTree)
		want string
	}{
		"dangling child": {func(tr *core.FedTree) { delete(tr.Nodes, 3) }, "tree 1 node 1 has dangling child 3"},
		"cycle":          {func(tr *core.FedTree) { tr.Nodes[1].Right = 1 }, "tree 1 node 1 reaches node 1 twice"},
		"missing root":   {func(tr *core.FedTree) { tr.Root = 7 }, "tree 1 root 7 missing"},
	} {
		frag := sound()
		c.edit(frag.Trees[1])
		err := r.Publish(Model{Version: 2, Fragment: frag, LearningRate: 0.1})
		if !errors.Is(err, core.ErrModelStructure) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Publish returned %v, want a refusal naming %q", name, err, c.want)
		}
		if v := r.CurrentVersion(); v != 1 {
			t.Errorf("%s: current version %d after a refused publish, want 1", name, v)
		}
		if _, ok := r.Get(2); ok {
			t.Errorf("%s: the refused version is resolvable", name)
		}
	}

	passive := core.NewFedTree(1)
	passive.Nodes[1] = &core.FedNode{Owner: 0, Feature: 2, Threshold: 0.5, Left: 2, Right: 3}
	if err := NewRegistry().Publish(Model{Version: 1, Fragment: &core.PartyModel{Party: 0, Trees: []*core.FedTree{passive}}}); err != nil {
		t.Errorf("passive fragment refused: %v", err)
	}
	// A passive fragment's own links must be sound too: here node 2 is a
	// child of node 1 and its parent at once.
	passive.Nodes[2] = &core.FedNode{Owner: 0, Feature: 1, Left: 1, Right: 4}
	err := NewRegistry().Publish(Model{Version: 1, Fragment: &core.PartyModel{Party: 0, Trees: []*core.FedTree{passive}}})
	if !errors.Is(err, core.ErrModelStructure) || !strings.Contains(err.Error(), "tree 0 node 1 reaches node 1 twice") {
		t.Errorf("passive fragment with a cycle: Publish returned %v, want a refusal naming tree 0 node 1", err)
	}
}
