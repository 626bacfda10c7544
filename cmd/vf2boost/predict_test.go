package main

import (
	"io"
	"testing"

	"vf2boost/internal/core"
	"vf2boost/internal/dataset"
	"vf2boost/internal/serve"
)

// chanEnd is one end of an in-memory link.
type chanEnd struct {
	send chan<- []byte
	recv <-chan []byte
}

func (c chanEnd) Send(b []byte) error {
	c.send <- append([]byte(nil), b...)
	return nil
}

func (c chanEnd) Receive() ([]byte, error) {
	b, ok := <-c.recv
	if !ok {
		return nil, io.EOF
	}
	return b, nil
}

// TestPredictSessionScoresInBoundedRounds: Party B's side of `predict`
// scores a shard larger than predictRoundRows in ceil(n/predictRoundRows)
// rounds of one session, and its margins are the glued model's PredictAll.
func TestPredictSessionScoresInBoundedRounds(t *testing.T) {
	split := []int{5, 5}
	gen := func(rows int, seed int64) []*dataset.Dataset {
		d, err := dataset.Generate(dataset.GenOptions{Rows: rows, Cols: 10, Density: 0.6, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		parts, err := d.VerticalSplit(split, 1)
		if err != nil {
			t.Fatal(err)
		}
		return parts
	}
	cfg := core.DefaultConfig()
	cfg.Scheme = core.SchemeMock
	cfg.Trees = 3
	cfg.MaxDepth = 3
	sess, err := core.NewSession(gen(400, 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sess.Train()
	if err != nil {
		t.Fatal(err)
	}
	if m.SplitsByParty[0] == 0 {
		t.Fatal("the model has no party-0 splits; the worker's bitmaps would route nothing")
	}

	n := predictRoundRows + 1000
	parts := gen(n, 6)
	want, err := m.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}

	aReg := serve.NewRegistry()
	if err := aReg.Publish(serve.Model{Version: 1, Fragment: m.Parties[0]}); err != nil {
		t.Fatal(err)
	}
	bReg := serve.NewRegistry()
	if err := bReg.Publish(serve.Model{Version: 1, Fragment: m.Parties[1], LearningRate: m.LearningRate}); err != nil {
		t.Fatal(err)
	}
	a2b, b2a := make(chan []byte, 4), make(chan []byte, 4)
	w := serve.NewPassiveWorker(0, parts[0], aReg)
	done := make(chan error, 1)
	go func() { done <- w.Run(chanEnd{send: a2b, recv: b2a}) }()

	got, err := predictSession(parts[1], bReg, []core.Transport{chanEnd{send: b2a, recv: a2b}})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if rounds, wantRounds := w.Rounds(), int64((n+predictRoundRows-1)/predictRoundRows); rounds != wantRounds {
		t.Errorf("worker answered %d rounds for %d rows, want %d", rounds, n, wantRounds)
	}
	if len(got) != n {
		t.Fatalf("%d margins for %d rows", len(got), n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: margin %v, want PredictAll's %v", i, got[i], want[i])
		}
	}
}
