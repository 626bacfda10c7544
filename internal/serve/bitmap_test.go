package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"vf2boost/internal/core"
)

// TestShortBitmapSeversSession: a worker that answers a 64-row round with
// 1 byte of routing bits for a tree whose reach needs more has broken the
// protocol, like one answering at the wrong version. The server severs its session (one breaker failure)
// and, without panicking, fails the round under FailClosed or serves it
// without that party under ServePartial.
func TestShortBitmapSeversSession(t *testing.T) {
	rows := make([]int32, 64)
	for i := range rows {
		rows[i] = int32(i)
	}
	for _, policy := range []DegradedPolicy{FailClosed, ServePartial} {
		t.Run(fmt.Sprint(policy), func(t *testing.T) {
			f := newPipeFixture(t, twoWay, 211, func(c *ServerConfig, _ *pipeFixture) { c.Policy = policy })
			l := f.links[0]
			r := f.score(context.Background(), rows)
			l.nextRequest()
			// The fake worker: the real answer, with one tree's bits cut short.
			short := l.nextAnswer().resp
			if len(short.Nodes) == 0 || len(short.Nodes[0].Bits) < 2 {
				t.Fatal("the model's first tree has under 2 bytes of party-0 bits; a short answer would be invisible")
			}
			short.Nodes = append([]core.PredictNodeBits(nil), short.Nodes...)
			short.Nodes[0].Bits = short.Nodes[0].Bits[:1]
			l.inject(short)

			o := f.outcome(r)
			switch policy {
			case FailClosed:
				if !errors.Is(o.err, ErrPartyUnavailable) {
					t.Fatalf("round with a short bitmap returned %v, want ErrPartyUnavailable", o.err)
				}
				// The round's error keeps its cause, naming party and tree.
				want := fmt.Sprintf("party 0 sent 1 bytes for tree %d,", short.Nodes[0].Tree)
				if !errors.Is(o.err, core.ErrRoutingBits) || !strings.Contains(o.err.Error(), want) {
					t.Fatalf("round with a short bitmap returned %v, want it to wrap ErrRoutingBits with %q", o.err, want)
				}
			case ServePartial:
				b := len(f.parts) - 1
				want, _, err := core.RoutePartialMargins(f.model.Parties[b], f.model.LearningRate, f.model.BaseScore,
					f.parts[b], rows, nil, map[int]bool{0: true})
				if err != nil {
					t.Fatal(err)
				}
				if o.err != nil || fmt.Sprint(o.res.Missing) != "[0]" {
					t.Fatalf("round with a short bitmap returned %v missing %v, want a partial answer missing [0]", o.err, o.res.Missing)
				}
				for k := range rows {
					if o.res.Margins[k] != want[k] {
						t.Fatalf("partial margin[%d] = %v, want %v", k, o.res.Margins[k], want[k])
					}
				}
			}
			if f.srv.workers[0].alive.Load() {
				t.Error("the link that answered short is still marked alive")
			}
			if _, failures := breakerLedger(f.srv.Breaker(0)); failures != 1 {
				t.Errorf("breaker saw %d failures for one severed link, want 1", failures)
			}
			f.close()
		})
	}
}
