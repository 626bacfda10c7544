package serve

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"sync/atomic"

	"vf2boost/internal/clock"
	"vf2boost/internal/core"
	"vf2boost/internal/dataset"
	"vf2boost/internal/trace"
)

// PassiveWorker is a passive party's scoring sidecar: it holds the party's
// feature shard of the aligned scoring universe and its fragment registry,
// and answers an unbounded stream of scoring rounds on one session. Errors
// that concern a single round (unknown model version, out-of-range row)
// are answered as structured MsgScoreResponse errors and keep the session
// alive; only transport loss or an explicit close ends Run. Requests are
// answered one at a time in arrival order, each echoing its Round: the
// server may have several outstanding (it matches answers by id), and the
// worker neither knows nor cares how many.
type PassiveWorker struct {
	// Party is this worker's passive party index (the same index used for
	// training topics and fragment ownership).
	Party int
	// Data is the party's feature shard, aligned with the other parties.
	Data *dataset.Dataset
	// Registry resolves pinned model versions to local fragments.
	Registry *Registry
	// Trace, when set, records one span per scoring round on lane
	// "A<i>:Score".
	Trace *trace.Recorder
	// Logger, when set, receives session diagnostics (e.g. a close ack
	// the peer never saw); nil falls back to the standard logger.
	Logger *log.Logger

	// clock is the time source of RunLoop's waits; tests put it on
	// virtual time, everything else leaves it nil for the wall clock.
	clock clock.Clock
	// proto is the scoring protocol version the worker speaks; tests set
	// an older one, everything else leaves 0 for core.ScoreProtoVersion.
	proto int

	rounds atomic.Int64
	errors atomic.Int64
}

// logf routes a diagnostic to the worker's logger.
func (w *PassiveWorker) logf(format string, args ...any) {
	if w.Logger != nil {
		w.Logger.Printf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// NewPassiveWorker wires a sidecar for one passive party.
func NewPassiveWorker(party int, data *dataset.Dataset, reg *Registry) *PassiveWorker {
	return &PassiveWorker{Party: party, Data: data, Registry: reg}
}

// Rounds returns the number of scoring rounds answered so far.
func (w *PassiveWorker) Rounds() int64 { return w.rounds.Load() }

// RoundErrors returns the number of rounds answered with a structured
// error.
func (w *PassiveWorker) RoundErrors() int64 { return w.errors.Load() }

// Run serves one scoring session over the transport: open handshake, then
// scoring rounds until the peer closes the session (clean, returns nil)
// or the transport drops (also clean — sidecars outlive flaky peers and
// are simply re-dialed). A protocol violation returns an error, and so
// does a frame that arrived but cannot be decoded (core.ErrUndecodable):
// that peer is broken or from an incompatible build, not flaky.
func (w *PassiveWorker) Run(tr core.Transport) error {
	l := core.NewLink(tr)
	reach := make(map[uint64]*boundVersion) // this session's reach links, by version
	for {
		msg, err := l.Recv()
		if errors.Is(err, core.ErrUndecodable) {
			return fmt.Errorf("serve: worker %d: %w", w.Party, err)
		}
		if err != nil {
			// Transport closed underneath us: the normal end of a session
			// whose peer went away.
			return nil
		}
		switch m := msg.(type) {
		case core.MsgScoreOpen:
			speaks := w.proto
			if speaks == 0 {
				speaks = core.ScoreProtoVersion
			}
			ack := core.MsgScoreOpenAck{
				Proto:    speaks,
				Party:    w.Party,
				Rows:     w.Data.Rows(),
				Versions: w.Registry.Versions(),
			}
			if m.Proto != speaks {
				ack.Error = fmt.Sprintf("serve: protocol version %d not supported (worker speaks %d)", m.Proto, speaks)
			}
			if err := l.Send(ack); err != nil {
				return err
			}
		case core.MsgScoreReach:
			reach[m.Version] = &boundVersion{links: m.Trees}
		case core.MsgScoreRequest:
			if err := l.Send(w.answer(m, reach[m.Version])); err != nil {
				return err
			}
		case core.MsgScoreClose:
			if err := l.Send(core.MsgScoreCloseAck{}); err != nil {
				// The session is over either way, but a lost ack leaves
				// the peer seeing a half-closed session — make that
				// diagnosable instead of silent.
				w.logf("serve: worker %d: close ack not delivered: %v", w.Party, err)
			}
			return nil
		default:
			return fmt.Errorf("serve: worker got unexpected %T", msg)
		}
	}
}

// RunLoop serves scoring sessions until stopped: every time a session
// ends cleanly (peer closed, transport dropped) it re-dials and serves
// the next one, so a sidecar survives Party B restarts. Dials follow the
// retry schedule of clock.Backoff, its jitter seeded by the party index so
// that a restarted fleet's sidecars do not re-dial Party B in step. The
// schedule starts over only after a session that answered at least one
// round, so a peer that accepts dials but never gets a round through
// cannot hold the sidecar at the first wait. clock.MaxFails failed dials
// in a row, or a session that ends in an error (a protocol violation, an
// undecodable frame), end the loop with that error: re-dialing a peer that
// speaks a frame this build cannot read would only repeat the session.
func (w *PassiveWorker) RunLoop(dial func() (core.Transport, error)) error {
	clk := w.clock
	if clk == nil {
		clk = clock.Wall{}
	}
	retry := clock.NewBackoff(clk, rand.New(rand.NewSource(int64(w.Party)+1)))
	for {
		tr, err := dial()
		if err != nil {
			if !retry.Fail(nil) {
				return fmt.Errorf("serve: worker %d: redial failed %d times: %w", w.Party, clock.MaxFails, err)
			}
			continue
		}
		w.logf("serve: worker %d: session open", w.Party)
		before := w.rounds.Load()
		err = w.Run(tr)
		// Sever the finished session's transport before re-dialing: a
		// lingering gateway consumer would compete with the next session's
		// and steal its frames.
		if c, ok := tr.(io.Closer); ok {
			c.Close()
		}
		if err != nil {
			return err
		}
		if w.rounds.Load() > before {
			retry.Reset()
		} else {
			// The session never carried a round — the peer is flapping.
			// Keep (and escalate) the wait so a restarted fleet does not
			// hammer a struggling Party B.
			retry.Wait(nil)
		}
		w.logf("serve: worker %d: session ended, re-dialing", w.Party)
	}
}

// boundVersion is one model version's reach links as a session received
// them, and the table they bound to the version's fragment (or why they
// did not).
type boundVersion struct {
	links []core.ReachTree
	base  *core.RouteTable // the fragment's table the binding was made for
	table *core.RouteTable
	err   error
}

// bind returns the answering table for the version's fragment, binding the
// links on first use and again if the version was republished since.
func (b *boundVersion) bind(routes *core.RouteTable) (*core.RouteTable, error) {
	if b.base != routes {
		b.base = routes
		b.table, b.err = routes.Bind(b.links)
	}
	return b.table, b.err
}

// answer computes one round's routing bits against the pinned version and
// the reach links the session received for it.
func (w *PassiveWorker) answer(m core.MsgScoreRequest, reach *boundVersion) core.MsgScoreResponse {
	var lane trace.Lane
	var label string
	if w.Trace != nil {
		lane = trace.Lane(fmt.Sprintf("A%d:Score", w.Party))
		label = fmt.Sprintf("round %d n=%d v=%d", m.Round, len(m.Rows), m.Version)
	}
	defer w.Trace.Span(lane, label)()
	w.rounds.Add(1)
	resp := core.MsgScoreResponse{Round: m.Round, Version: m.Version, Party: w.Party}
	mv, ok := w.Registry.Get(m.Version)
	if !ok {
		w.errors.Add(1)
		resp.Error = fmt.Sprintf("serve: model version %d not published at party %d", m.Version, w.Party)
		return resp
	}
	if reach == nil {
		w.errors.Add(1)
		resp.Error = fmt.Sprintf("serve: party %d has no reach links for model version %d", w.Party, m.Version)
		return resp
	}
	table, err := reach.bind(mv.routes)
	if err == nil {
		resp.Nodes, err = table.Score(w.Data, m.Rows)
	}
	if err != nil {
		w.errors.Add(1)
		resp.Error = err.Error()
	}
	return resp
}
