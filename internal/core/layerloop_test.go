package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"strings"
	"sync"
	"testing"
	"time"

	"vf2boost/internal/dataset"
	"vf2boost/internal/wire"
)

// frameLog is Party B's end of one link, logging what B sends the party:
// every MsgDecisions, MsgDirty and MsgTreeDone reduced to its fields, a
// placement to its hash, folded into one running hash. It also counts the
// tentative frames, the corrections and the decisions that abort tentative
// children.
type frameLog struct {
	*chanEnd
	mu                       sync.Mutex
	h                        hash.Hash
	tentative, dirty, aborts int
}

func (f *frameLog) Send(p []byte) error {
	m, err := wire.Binary.Decode(p)
	if err != nil {
		return err
	}
	f.mu.Lock()
	switch m := m.(type) {
	case MsgDecisions:
		fmt.Fprintf(f.h, "decisions tree=%d layer=%d tentative=%t\n", m.Tree, m.Layer, m.Tentative)
		if m.Tentative {
			f.tentative++
		}
		for _, d := range m.Nodes {
			fmt.Fprintf(f.h, "node=%d action=%d owner=%d children=%d,%d split=%d,%d count=%d abort=%d,%d placement=%x\n",
				d.Node, d.Action, d.Owner, d.LeftID, d.RightID, d.Feature, d.Bin, d.Count, d.AbortLeft, d.AbortRight, sha256.Sum256(d.Placement))
			if d.AbortLeft != 0 || d.AbortRight != 0 {
				f.aborts++
			}
		}
	case MsgDirty:
		f.dirty++
		fmt.Fprintf(f.h, "dirty tree=%d layer=%d node=%d old=%d,%d children=%d,%d split=%d,%d\n",
			m.Tree, m.Layer, m.Node, m.OldLeft, m.OldRight, m.LeftID, m.RightID, m.Feature, m.Bin)
	case MsgTreeDone:
		fmt.Fprintf(f.h, "done tree=%d\n", m.Tree)
	}
	f.mu.Unlock()
	return f.chanEnd.Send(p)
}

// loggedSession trains parts (passive parties first, Party B last) over
// in-memory links whose B ends log B's traffic, and returns the logs in
// party order.
func loggedSession(t *testing.T, parts []*dataset.Dataset, cfg Config) []*frameLog {
	t.Helper()
	passive := len(parts) - 1
	logs := make([]*frameLog, passive)
	bEnds := make([]Transport, passive)
	errs := make(chan error, passive)
	views := testViews(t, cfg, parts...)
	for i := range logs {
		a, b := newPipe()
		defer a.Close()
		defer b.Close() // Party B's inboxes are still reading
		logs[i] = &frameLog{chanEnd: b, h: sha256.New()}
		bEnds[i] = logs[i]
		go func() {
			_, err := RunPassiveParty(i, views[i], cfg, a)
			errs <- err
		}()
	}
	if _, _, err := RunActiveParty(views[passive], parts[passive].Labels, cfg, bEnds); err != nil {
		t.Fatal(err)
	}
	for range logs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	return logs
}

// TestLayerLoopFrameLog pins, frame by frame, what Party B sends each
// passive party while it grows trees: the decisions, corrections and tree
// ends of both schedules, with the node IDs they allocate and the
// placements they carry. B decides from the data and the configuration
// alone, never from when a histogram or a placement arrived, so each log
// hashes the same on every run and at any core count.
func TestLayerLoopFrameLog(t *testing.T) {
	_, plain := twoPartyData(t, 400, 6, 4, 0.8, false, 63)
	// The passive party holds most features: the first tree speculates and
	// loses, and the trees after it do not speculate.
	_, rich := twoPartyData(t, 500, 14, 2, 1, true, 41)
	d, err := dataset.Generate(dataset.GenOptions{Rows: 500, Cols: 16, Density: 1, Dense: true, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	three, err := d.VerticalSplit([]int{7, 7, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, multi := multiclassParts(t, 240, 6, 3, 41)

	sequential := quickConfig(SchemeMock)
	sequential.OptimisticSplit = false
	multiclass := quickConfig(SchemeMock)
	multiclass.Objective = mustObjective(t, "multiclass:3")
	multiclass.Trees = 2
	for _, tc := range []struct {
		name  string
		parts []*dataset.Dataset
		cfg   Config
		// premise is what the case stands for, over every link's counts.
		premise func(tentative, dirty, aborts int) bool
		want    []string
	}{
		{"sequential", plain, sequential,
			func(tentative, dirty, _ int) bool { return tentative == 0 && dirty == 0 },
			[]string{"8131a83e66226df0ea186333441b57dab21f5d9a91e947eac2297647fb63272b"}},
		{"default-feature-rich", rich, quickConfig(SchemeMock),
			func(tentative, dirty, _ int) bool { return tentative > 0 && dirty == 7 },
			[]string{"e7ebeed4f049646022d5cf71d7a038335773c26e2e8e5d0eaf701a6579b9496c"}},
		{"two-passive-relays", three, quickConfig(SchemeMock),
			func(_, dirty, aborts int) bool { return dirty > 0 && aborts > 0 },
			[]string{"a9d9b99e2cdedb40c63d71b30ac6c00fbfcb08aec3b8ba663f4f187b105392db", "fd7b85042e0374c2b2a29c8534d603ce41ccd7a32c4c87af86a0ec2e95902bce"}},
		{"multiclass-3", multi, multiclass,
			func(tentative, dirty, _ int) bool { return tentative == 0 && dirty == 0 },
			[]string{"8f322a881317ee5ba504ba22901564f3cb559bd677610c80a054c8857c01a01f"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			logs := loggedSession(t, tc.parts, tc.cfg)
			var tentative, dirty, aborts int
			for i, l := range logs {
				tentative, dirty, aborts = tentative+l.tentative, dirty+l.dirty, aborts+l.aborts
				if got := fmt.Sprintf("%x", l.h.Sum(nil)); got != tc.want[i] {
					t.Errorf("party %d: frame log hash %s, want %s", i, got, tc.want[i])
				}
			}
			if !tc.premise(tentative, dirty, aborts) {
				t.Errorf("test premise broken: %d tentative frames, %d corrections, %d aborting relays", tentative, dirty, aborts)
			}
		})
	}
}

// TestFingerprintStable pins the checkpoint fingerprints of the preset
// configurations, so a checkpoint written before a Config field was
// retired still resumes.
func TestFingerprintStable(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"DefaultConfig", DefaultConfig(), "982d9eed6be029a5ac913086e7d9f364a504b59c164d77d74d3b52edac0a0eab"},
		{"BaselineConfig", BaselineConfig(), "fca3a3973ea8a0e74f4d5f624750a1a821d9ee7faa799746b0e14cea9c81011d"},
		{"MockConfig", MockConfig(), "f2fcdad331ff96e3474c5bfb3ee90802d9a259bc4b72b73b53284e3fc2ae0d68"},
	} {
		if got := tc.cfg.Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestSpeculationStopsAfterALostTree: a session's first tree speculates,
// and once a speculating tree has lost more than half its splits to the
// passive parties no later tree of the session does. Here the passive
// party holds most features, so tree 0 loses and the corrections are tree
// 0's at any tree count; the margins are the sequential schedule's.
func TestSpeculationStopsAfterALostTree(t *testing.T) {
	_, parts := twoPartyData(t, 500, 14, 2, 1, true, 41)
	for _, trees := range []int{1, 2, 4, 8} {
		cfg := quickConfig(SchemeMock)
		cfg.Trees = trees
		m, s := trainFed(t, parts, cfg)
		if got := s.Stats().DirtyNodes(); got != 7 {
			t.Errorf("%d trees: %d dirty nodes, want tree 0's 7", trees, got)
		}
		seq := cfg
		seq.OptimisticSplit = false
		mSeq, _ := trainFed(t, parts, seq)
		got, err := m.PredictAll(parts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mSeq.PredictAll(parts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d trees: row %d margin %v, %v on the sequential schedule", trees, i, got[i], want[i])
			}
		}
	}
}

// placementCutter is a passive party's end of a link that cuts every
// placement bitmap it sends longer than one byte down to one byte.
type placementCutter struct{ *chanEnd }

func (c placementCutter) Send(p []byte) error {
	if m, err := wire.Binary.Decode(p); err == nil {
		if pl, ok := m.(MsgPlacement); ok && len(pl.Bits) > 1 {
			pl.Bits = pl.Bits[:1]
			if p, err = wire.Binary.Encode(pl); err != nil {
				return err
			}
		}
	}
	return c.chanEnd.Send(p)
}

// TestShortPlacementAbortsSession: a placement bitmap that does not cover
// the node a passive party split ends Party B's session with
// ErrRoutingBits naming the party, tree and node, after B told the party
// why — under both schedules, and never as a panic of B's process.
func TestShortPlacementAbortsSession(t *testing.T) {
	_, parts := twoPartyData(t, 500, 14, 2, 1, true, 41)
	for _, speculate := range []bool{false, true} {
		t.Run(fmt.Sprintf("speculate=%t", speculate), func(t *testing.T) {
			cfg := quickConfig(SchemeMock)
			cfg.OptimisticSplit = speculate
			views := testViews(t, cfg, parts...)
			a, b := newPipe()
			defer a.Close()
			defer b.Close()
			aErr, bErr := make(chan error, 1), make(chan error, 1)
			go func() {
				_, err := RunPassiveParty(0, views[0], cfg, placementCutter{a})
				aErr <- err
			}()
			go func() {
				_, _, err := RunActiveParty(views[1], parts[1].Labels, cfg, []Transport{b})
				bErr <- err
			}()
			var err error
			select {
			case err = <-bErr:
			case <-time.After(10 * time.Second):
				t.Fatal("Party B still running 10 s after a short placement")
			}
			if !errors.Is(err, ErrRoutingBits) || !strings.Contains(err.Error(), "party 0 placement for tree 0 node") {
				t.Fatalf("Party B returned %v, want ErrRoutingBits naming party 0, tree 0 and the node", err)
			}
			select {
			case pErr := <-aErr:
				if pErr == nil || !strings.Contains(pErr.Error(), err.Error()) {
					t.Errorf("passive party returned %v, want B's abort reason %q", pErr, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("passive party still running 10 s after B aborted")
			}
		})
	}
}
