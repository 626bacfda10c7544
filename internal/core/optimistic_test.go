package core

import (
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vf2boost/internal/clock"
	"vf2boost/internal/dataset"
	"vf2boost/internal/wire"
)

// lagNet is an in-memory network on virtual time: a frame sent at T can
// be received at T+lag, and computing costs nothing. The clock moves only
// when every goroutine of the session is blocked (see settled), so what a
// test reads off it is the protocol's critical path in round trips, the
// same on any host at any load.
type lagNet struct {
	clk *clock.Fake
	lag time.Duration

	mu     sync.Mutex
	events []lagEvent // Party B's traffic, in order
	stack  []byte     // settled's scratch
}

// lagEvent is one frame of the level phase as Party B saw it, reduced to
// what the schedule assertions read (the link recycles the payload).
type lagEvent struct {
	at          time.Time
	kind        lagKind
	tree, layer int
}

type lagKind int

const (
	sentTentative lagKind = iota // B → A: a layer's tentative decisions
	sentDirty                    // B → A: one correction
	sentTreeDone                 // B → A: the tree is finished
	gotHistograms                // A → B: node histograms of a layer
)

type lagFrame struct {
	payload []byte
	due     time.Time
}

// lagEnd is one party's end of a link. Party B's ends log their traffic.
type lagEnd struct {
	net     *lagNet
	out, in chan lagFrame
	log     bool
}

// link returns the two ends of one B↔A link, B's first.
func (n *lagNet) link() (*lagEnd, *lagEnd) {
	// Deep enough that no sender of these small sessions ever blocks on a
	// full pipe: a link has no window, only latency.
	b2a, a2b := make(chan lagFrame, 1<<12), make(chan lagFrame, 1<<12)
	return &lagEnd{net: n, out: b2a, in: a2b, log: true}, &lagEnd{net: n, out: a2b, in: b2a}
}

func (e *lagEnd) Send(b []byte) error {
	if e.log {
		e.net.record(true, b)
	}
	e.out <- lagFrame{payload: b, due: e.net.clk.Now().Add(e.net.lag)}
	return nil
}

func (e *lagEnd) Receive() ([]byte, error) {
	f, ok := <-e.in
	if !ok {
		return nil, io.EOF
	}
	if wait := f.due.Sub(e.net.clk.Now()); wait > 0 {
		arrived, _ := clock.After(e.net.clk, wait)
		<-arrived
	}
	if e.log {
		e.net.record(false, f.payload)
	}
	return f.payload, nil
}

func (n *lagNet) record(sent bool, payload []byte) {
	m, err := wire.Binary.Decode(payload)
	if err != nil {
		return
	}
	ev := lagEvent{at: n.clk.Now()}
	switch m := m.(type) {
	case MsgDecisions:
		if !sent || !m.Tentative {
			return
		}
		ev.kind, ev.tree, ev.layer = sentTentative, m.Tree, m.Layer
	case MsgDirty:
		ev.kind, ev.tree, ev.layer = sentDirty, m.Tree, m.Layer
	case MsgTreeDone:
		ev.kind, ev.tree = sentTreeDone, m.Tree
	case MsgHistograms:
		ev.kind, ev.tree, ev.layer = gotHistograms, m.Tree, m.Layer
	default:
		return
	}
	n.mu.Lock()
	n.events = append(n.events, ev)
	n.mu.Unlock()
}

// settled reports whether every goroutine running this module's code is
// parked on a channel or a sync primitive — all the session ever blocks
// on: only then can nothing but the clock make progress. Any other state
// counts as busy, a bare "semacquire" in particular: that is a goroutine
// queued on a runtime semaphore (one about to start a GC cycle waits there
// for the world this very dump has stopped), except that toolchains before
// go1.24 show WaitGroup.Wait that way. IO wait and sleep are goroutines
// other tests left behind. runtime.Stack lists the caller first; it is the
// one goroutine allowed to be running.
func (n *lagNet) settled() bool {
	if n.stack == nil {
		n.stack = make([]byte, 1<<20)
	}
	size := runtime.Stack(n.stack, true)
	for size == len(n.stack) {
		n.stack = make([]byte, 2*len(n.stack))
		size = runtime.Stack(n.stack, true)
	}
	parked := []string{"chan receive", "chan send", "select", "sync.", "IO wait", "sleep"}
	for _, g := range strings.Split(string(n.stack[:size]), "\n\n")[1:] {
		if !strings.Contains(g, "vf2boost/") {
			continue // runtime and testing goroutines
		}
		state := g[strings.IndexByte(g, '[')+1:]
		idle := strings.HasPrefix(state, "semacquire") && strings.Contains(g, "sync.(*WaitGroup).Wait")
		for _, p := range parked {
			idle = idle || strings.HasPrefix(state, p)
		}
		if !idle {
			return false
		}
	}
	return true
}

// train runs one federated session (parts: the passive parties, then
// Party B) over the network and returns the fragments in party order.
func (n *lagNet) train(t *testing.T, parts []*dataset.Dataset, cfg Config) []*PartyModel {
	t.Helper()
	passive := len(parts) - 1
	models := make([]*PartyModel, len(parts))
	errs := make([]error, len(parts))
	bEnds := make([]Transport, passive)
	views := testViews(t, cfg, parts...)
	var ends []*lagEnd
	var wg sync.WaitGroup
	for i := 0; i < passive; i++ {
		b, a := n.link()
		bEnds[i] = b
		ends = append(ends, a, b)
		wg.Add(1)
		go func() {
			defer wg.Done()
			models[i], errs[i] = RunPassiveParty(i, views[i], cfg, a)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		models[passive], _, errs[passive] = RunActiveParty(views[passive], parts[passive].Labels, cfg, bEnds)
	}()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			if !n.settled() || !n.clk.Step() {
				runtime.Gosched()
			}
		}
	}
	for _, e := range ends {
		close(e.out) // Party B's inboxes are still reading
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", i, err)
		}
	}
	for _, m := range models[:passive] {
		for len(m.Trees) < cfg.Trees {
			m.Trees = append(m.Trees, NewFedTree(rootID))
		}
	}
	return models
}

// TestOptimisticCorrectionsShareOneRoundTrip: the dirty nodes of a layer
// are corrected together. Party B posts every MsgDirty of the layer before
// it waits for a placement, so however many nodes were dirty the layer
// ends one round trip after its last histogram arrived (on this network,
// where computing is free, that is when it was decrypted) — not one round
// trip per dirty node — and the model is the sequential schedule's.
func TestOptimisticCorrectionsShareOneRoundTrip(t *testing.T) {
	const lag = 20 * time.Millisecond
	for _, tc := range []struct {
		name   string
		counts []int // feature columns per party, Party B last
	}{
		{"passive=1", []int{14, 2}},
		{"passive=2", []int{7, 7, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The passive parties hold most features, so most tentative
			// splits lose.
			d, err := dataset.Generate(dataset.GenOptions{Rows: 500, Cols: 16, Density: 1, Dense: true, Seed: 6})
			if err != nil {
				t.Fatal(err)
			}
			parts, err := d.VerticalSplit(tc.counts, len(tc.counts)-1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := quickConfig(SchemeMock)
			net := &lagNet{clk: clock.NewFake(), lag: lag}
			opt := &FederatedModel{Parties: net.train(t, parts, cfg), LearningRate: cfg.LearningRate}

			seq := cfg
			seq.OptimisticSplit = false
			mSeq, _ := trainFed(t, parts, seq)
			want, err := mSeq.PredictAll(parts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := opt.PredictAll(parts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("row %d: margin %v over the lagged links, %v on the sequential schedule", i, got[i], want[i])
				}
			}

			// Read B's traffic layer by layer. A layer ends when B moves
			// on: the next layer's tentative decisions, or MsgTreeDone.
			// Its histograms may arrive before its own tentative decisions
			// leave — the passive parties run ahead.
			type layerKey struct{ tree, layer int }
			dirty := map[layerKey]int{}
			lastHist, ended := map[layerKey]time.Time{}, map[layerKey]time.Time{}
			deepest := map[int]int{}
			for _, ev := range net.events {
				k := layerKey{ev.tree, ev.layer}
				switch ev.kind {
				case sentTentative:
					deepest[ev.tree] = ev.layer
					if prev := (layerKey{ev.tree, ev.layer - 1}); ended[prev].IsZero() {
						ended[prev] = ev.at
					}
				case sentTreeDone:
					ended[layerKey{ev.tree, deepest[ev.tree]}] = ev.at
				case sentDirty:
					dirty[k]++
				case gotHistograms:
					lastHist[k] = ev.at
				}
			}
			crowded := 0
			for k, d := range dirty {
				if d < 2 {
					continue
				}
				crowded++
				if tail := ended[k].Sub(lastHist[k]); tail > 2*lag {
					t.Errorf("tree %d layer %d: %d dirty nodes, layer ended %v after its last histogram arrived, want one round trip (%v)",
						k.tree, k.layer, d, tail, 2*lag)
				}
			}
			if crowded == 0 {
				t.Fatal("no layer had two dirty nodes: the dataset no longer exercises the schedule")
			}
		})
	}
}
