package core

import (
	"strings"
	"testing"
	"time"
)

// TestInboxAwait: a wait Party B makes on a passive link returns the frame
// it waits for, or the peer's MsgAbort, however many frames of other kinds
// queue ahead of it on the link.
func TestInboxAwait(t *testing.T) {
	placements := func(n int) []any {
		frames := make([]any, n)
		for i := range frames {
			frames[i] = MsgPlacement{Node: int32(i + 2), Bits: []byte{1}, Count: 1}
		}
		return frames
	}
	hists := func(n int) []any {
		frames := make([]any, n)
		for i := range frames {
			frames[i] = MsgHistograms{Nodes: []NodeHist{{Node: int32(i + 2)}}}
		}
		return frames
	}
	abort := MsgAbort{Party: 1, Reason: "hostile histogram"}
	for _, tc := range []struct {
		name    string
		frames  []any
		await   inboxKey
		wantErr string // "" expects the frame
	}{
		{"abort fails a pending wait", []any{abort}, histKey(0, 1), "party 1 aborted session: hostile histogram"},
		{"300 placements, then the awaited histogram",
			append(placements(300), MsgHistograms{Nodes: []NodeHist{{Node: 1}}}), histKey(0, 1), ""},
		{"300 placements, then an abort", append(placements(300), abort), histKey(0, 1), "party 1 aborted session"},
		{"1100 histograms, then the awaited placement",
			append(hists(1100), MsgPlacement{Node: 1, Bits: []byte{1}, Count: 1}), placementKey(0, 1), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			feed := chanTransport{ch: make(chan []byte, len(tc.frames))}
			sender := NewLink(feed)
			for _, f := range tc.frames {
				if err := sender.send(f); err != nil {
					t.Fatal(err)
				}
			}
			in := startInbox(NewLink(pairTransport{send: discardTransport{}.Send, recv: feed.Receive}), packPlan{capacity: 1})
			type result struct {
				f   any
				err error
			}
			done := make(chan result, 1)
			go func() {
				f, err := in.await(tc.await)
				done <- result{f, err}
			}()
			select {
			case r := <-done:
				switch {
				case tc.wantErr == "" && r.err != nil:
					t.Fatalf("wait failed: %v", r.err)
				case tc.wantErr == "" && nodeOf(r.f) != tc.await.node:
					t.Fatalf("wait returned %#v, want node %d's frame", r.f, tc.await.node)
				case tc.wantErr != "" && (r.err == nil || !strings.Contains(r.err.Error(), tc.wantErr)):
					t.Fatalf("wait returned %v, want an error containing %q", r.err, tc.wantErr)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("wait still blocked after 5s")
			}
		})
	}
}

// nodeOf is the node a histogram or placement frame is for, or -1.
func nodeOf(f any) int32 {
	switch m := f.(type) {
	case NodeHist:
		return m.Node
	case MsgPlacement:
		return m.Node
	}
	return -1
}

// TestWideLayerSessionEnds: a speculating session whose layers have
// hundreds of dirty nodes — each correction answered by one placement —
// ends, and with the sequential schedule's margins.
func TestWideLayerSessionEnds(t *testing.T) {
	_, parts := twoPartyData(t, 40000, 24, 1, 1, true, 1)
	cfg := quickConfig(SchemeMock)
	cfg.Trees, cfg.MaxDepth, cfg.MaxBins = 1, 12, 32
	type outcome struct {
		m   *FederatedModel
		s   *Session
		err error
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		s, err := NewSession(parts, cfg)
		if err != nil {
			done <- outcome{err: err}
			return
		}
		m, err := s.Train()
		done <- outcome{m, s, err}
	}()
	var opt outcome
	select {
	case opt = <-done:
		if opt.err != nil {
			t.Fatal(opt.err)
		}
	case <-time.After(3 * time.Minute): // ≈ 25 s under the race detector at one proc
		t.Fatal("speculating session still running after 3 minutes")
	}
	t.Logf("speculating session: %v, %d dirty nodes", time.Since(start), opt.s.Stats().DirtyNodes())

	seq := cfg
	seq.OptimisticSplit = false
	mSeq, _ := trainFed(t, parts, seq)
	want, err := mSeq.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := opt.m.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: margin %v speculating, %v on the sequential schedule", i, got[i], want[i])
		}
	}
}
