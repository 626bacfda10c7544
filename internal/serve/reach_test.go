package serve

import (
	"strings"
	"sync/atomic"
	"testing"

	"vf2boost/internal/core"
	"vf2boost/internal/wire"
)

// reachCounter counts the reach-link frames a server writes to a worker.
type reachCounter struct {
	core.Transport
	n *atomic.Int64
}

func (c reachCounter) Send(b []byte) error {
	if m, err := wire.Binary.Decode(b); err == nil {
		if _, ok := m.(core.MsgScoreReach); ok {
			c.n.Add(1)
		}
	}
	return c.Transport.Send(b)
}

// TestReachSentOncePerVersion: a session carries each model version's
// reach links once, before its first round at that version — rounds at a
// version already sent carry none, and a hot swap sends the new version's
// — and every round scores exactly.
func TestReachSentOncePerVersion(t *testing.T) {
	parts := twoParts(t, 60, 95)
	m1, m2 := trainModel(t, parts, 2), trainModel(t, parts, 4)
	wreg, breg := NewRegistry(), NewRegistry()
	if err := wreg.Publish(Model{Version: 1, Fragment: m1.Parties[0]}); err != nil {
		t.Fatal(err)
	}
	if err := breg.Publish(bModel(1, m1)); err != nil {
		t.Fatal(err)
	}
	serverTr, workerTr := pipePair()
	go NewPassiveWorker(0, parts[0], wreg).Run(workerTr)
	var sent atomic.Int64
	srv, err := NewServer(ServerConfig{Data: parts[1], Registry: breg, Workers: []core.Transport{reachCounter{serverTr, &sent}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Open(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rows := []int32{0, 5, 59, 5}
	check := func(m *core.FederatedModel, wantSent int64) {
		t.Helper()
		want := predictAll(t, m, parts)
		for round := 0; round < 3; round++ {
			margins, _, err := srv.ScoreRows(rows)
			if err != nil {
				t.Fatal(err)
			}
			for k, r := range rows {
				if margins[k] != want[r] {
					t.Fatalf("row %d: margin %g, want %g", r, margins[k], want[r])
				}
			}
		}
		if got := sent.Load(); got != wantSent {
			t.Errorf("%d reach frames sent, want %d", got, wantSent)
		}
	}
	check(m1, 1)
	if err := wreg.Publish(Model{Version: 2, Fragment: m2.Parties[0]}); err != nil {
		t.Fatal(err)
	}
	if err := breg.Publish(bModel(2, m2)); err != nil {
		t.Fatal(err)
	}
	check(m2, 2)
}

// TestMixedFleetRefused: a fleet that mixes scoring protocol versions is
// refused at the open handshake, both ways round. A worker that speaks
// version 1 refuses this server's version 2 open with its version message,
// and Open fails with it; this build's worker refuses a version 1 open;
// and an ack at another version is refused even when it carries no error.
func TestMixedFleetRefused(t *testing.T) {
	parts := twoParts(t, 40, 97)
	m := trainModel(t, parts, 2)
	wreg, breg := NewRegistry(), NewRegistry()
	if err := wreg.Publish(Model{Version: 1, Fragment: m.Parties[0]}); err != nil {
		t.Fatal(err)
	}
	if err := breg.Publish(bModel(1, m)); err != nil {
		t.Fatal(err)
	}

	serverTr, workerTr := pipePair()
	old := NewPassiveWorker(0, parts[0], wreg)
	old.proto = 1
	done := make(chan error, 1)
	go func() { done <- old.Run(workerTr) }()
	srv, err := NewServer(ServerConfig{Data: parts[1], Registry: breg, Workers: []core.Transport{serverTr}})
	if err != nil {
		t.Fatal(err)
	}
	err = srv.Open()
	if want := "worker 0 rejected session: serve: protocol version 2 not supported (worker speaks 1)"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Open against a version 1 worker returned %v, want %q", err, want)
	}
	workersReturn(t, []chan error{done})

	serverTr, workerTr = pipePair()
	go NewPassiveWorker(0, parts[0], wreg).Run(workerTr)
	l := core.NewLink(serverTr)
	if err := l.Send(core.MsgScoreOpen{Proto: 1, Session: "old-server"}); err != nil {
		t.Fatal(err)
	}
	msg, err := l.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ack := msg.(core.MsgScoreOpenAck); ack.Proto != 2 || ack.Error != "serve: protocol version 1 not supported (worker speaks 2)" {
		t.Fatalf("version 1 open answered %+v", ack)
	}
	l.Send(core.MsgScoreClose{})

	serverTr, workerTr = pipePair()
	go func() {
		wl := core.NewLink(workerTr)
		if _, err := wl.Recv(); err == nil {
			wl.Send(core.MsgScoreOpenAck{Proto: 1, Party: 0, Rows: parts[0].Rows()})
		}
		if _, err := wl.Recv(); err == nil { // the server's close
			wl.Send(core.MsgScoreCloseAck{})
		}
	}()
	srv, err = NewServer(ServerConfig{Data: parts[1], Registry: breg, Workers: []core.Transport{serverTr}})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Open(); err == nil || !strings.Contains(err.Error(), "worker 0 speaks scoring protocol 1, this server 2") {
		t.Fatalf("Open with a version 1 ack returned %v", err)
	}
}
