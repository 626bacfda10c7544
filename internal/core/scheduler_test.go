package core

import (
	"errors"
	"maps"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vf2boost/internal/fixedpoint"
	"vf2boost/internal/gbdt"
	"vf2boost/internal/he"
	"vf2boost/internal/wire"
)

// tickUnits is a stub unit cost: every unit reports its start and then
// takes exactly one tick, which the test hands out.
type tickUnits struct {
	started chan int
	tick    chan struct{}
}

func (u tickUnits) unit(i int) error {
	u.started <- i
	<-u.tick
	return nil
}

// TestUnitQueueReleasedSlotJoinsLongJob: a 1-unit job and a 40-unit job on
// two workers take ⌈41/2⌉ unit-times — in every tick but the last both
// workers hold a unit, so the slot the short job frees joins the long one.
func TestUnitQueueReleasedSlotJoinsLongJob(t *testing.T) {
	q := make(unitQueue, 2)
	u := tickUnits{started: make(chan int), tick: make(chan struct{})}
	var jobs sync.WaitGroup
	for _, n := range []int{1, 40} {
		jobs.Add(1)
		go func() {
			defer jobs.Done()
			if err := q.do(&histTask{}, n, u.unit); err != nil {
				t.Error(err)
			}
		}()
	}
	ticks := 0
	for left := 41; left > 0; ticks++ {
		running := min(2, left)
		for k := 0; k < running; k++ {
			select {
			case <-u.started:
			case <-time.After(10 * time.Second):
				t.Fatalf("tick %d: %d of %d workers picked up a unit with %d units left", ticks, k, running, left)
			}
		}
		select {
		case i := <-u.started:
			t.Fatalf("tick %d: a third unit (%d) started on two workers", ticks, i)
		default:
		}
		for k := 0; k < running; k++ {
			u.tick <- struct{}{}
		}
		left -= running
	}
	jobs.Wait()
	if ticks != 21 {
		t.Errorf("41 units on 2 workers took %d unit-times, want 21", ticks)
	}
}

// TestUnitQueueDropsAbortedAndFailedUnits: once a task is aborted or a
// unit fails, the job's unclaimed units never run and do reports why.
func TestUnitQueueDropsAbortedAndFailedUnits(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		stop func(task *histTask) error
		want error
	}{
		{"aborted", func(task *histTask) error { task.aborted.Store(true); return nil }, errTaskAborted},
		{"failed", func(*histTask) error { return boom }, boom},
	} {
		q := make(unitQueue, 1)
		task := &histTask{}
		var ran atomic.Int64
		err := q.do(task, 10, func(i int) error {
			if ran.Add(1) == 3 {
				return tc.stop(task)
			}
			return nil
		})
		if !errors.Is(err, tc.want) || ran.Load() != 3 {
			t.Errorf("%s: do returned %v after %d units, want %v after 3", tc.name, err, ran.Load(), tc.want)
		}
		// The queue is still good for the next job.
		if err := q.do(nil, 4, func(int) error { ran.Add(1); return nil }); err != nil || ran.Load() != 7 {
			t.Errorf("%s: follow-up job: %v after %d units", tc.name, err, ran.Load())
		}
	}
}

// countingScheme tracks how many homomorphic operations are in flight.
type countingScheme struct {
	he.Scheme
	inFlight, peak atomic.Int64
}

func (s *countingScheme) enter() func() {
	n := s.inFlight.Add(1)
	for p := s.peak.Load(); n > p && !s.peak.CompareAndSwap(p, n); p = s.peak.Load() {
	}
	runtime.Gosched() // widen the window in which a surplus worker would show
	return func() { s.inFlight.Add(-1) }
}

func (s *countingScheme) Add(a, b he.Ciphertext) he.Ciphertext {
	defer s.enter()()
	return s.Scheme.Add(a, b)
}

func (s *countingScheme) AddInto(a, b he.Ciphertext) he.Ciphertext {
	defer s.enter()()
	return s.Scheme.AddInto(a, b)
}

// failingView fails every row read past the first `good`.
type failingView struct {
	gbdt.BinView
	good  int
	reads atomic.Int64
}

var errShardGone = errors.New("shard gone")

func (v *failingView) Row(i int) ([]int32, []uint8, error) {
	if v.reads.Add(1) > int64(v.good) {
		return nil, nil, errShardGone
	}
	return v.BinView.Row(i)
}

// passiveRig is a passive party the test feeds frames by hand.
type passiveRig struct {
	p    *passiveParty
	in   chanTransport // B → party
	out  chanTransport // party → B
	rows int
	// cts are the chunk ciphertexts the party sent, by tree and node: the
	// rig's readers fold every MsgHistCt in here, so a node reads as one
	// frame, its header.
	cts map[[2]int][][]byte
}

func newPassiveRig(t *testing.T, rows, cols, workers int) *passiveRig {
	t.Helper()
	_, parts := twoPartyData(t, rows, cols, 2, 1, true, 76)
	cfg := quickConfig(SchemeMock)
	cfg.Workers = workers
	r := &passiveRig{in: chanTransport{ch: make(chan []byte, 64)}, out: chanTransport{ch: make(chan []byte, 4096)}, rows: rows,
		cts: map[[2]int][][]byte{}}
	r.p = testPassive(t, parts[0], cfg, NewLink(pairTransport{send: r.out.Send, recv: r.in.Receive}))
	return r
}

// feed queues the setup, one whole gradient stream and the given frames.
func (r *passiveRig) feed(t *testing.T, frames ...any) {
	t.Helper()
	cfg := r.p.cfg
	dec := he.NewMock(512)
	codec := fixedpoint.NewCodec(dec, fixedpoint.WithExponents(cfg.BaseExp, cfg.ExpSpread))
	pairs, err := codec.PlanPairs(r.rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	grads := MsgPairBatch{Cts: make([][]byte, r.rows), Exp: make([]int16, r.rows), Last: true}
	for i := range grads.Cts {
		e, err := pairs.Encrypt(0.25, 0.25, cfg.BaseExp+i%cfg.ExpSpread)
		if err != nil {
			t.Fatal(err)
		}
		grads.Cts[i], grads.Exp[i] = dec.Marshal(e.Ct), int16(e.Exp)
	}
	setup := MsgSetup{Scheme: SchemeMock, Bits: 512, BaseExp: cfg.BaseExp, ExpSpread: cfg.ExpSpread, PairBits: pairs.W, PackBits: 2 * pairs.W}
	r.post(t, append([]any{setup, grads}, frames...)...)
}

// post queues frames for the party.
func (r *passiveRig) post(t *testing.T, frames ...any) {
	t.Helper()
	for _, m := range frames {
		if err := NewLink(r.in).send(m); err != nil {
			t.Fatal(err)
		}
	}
}

// splitDecision splits a node of n instances after its first `left`.
func splitDecision(node, leftID, rightID int32, n, left int) NodeDecision {
	bits := make([]bool, n)
	for k := range bits {
		bits[k] = k < left
	}
	return NodeDecision{Node: node, Action: ActionSplitB, LeftID: leftID, RightID: rightID, Placement: packBitmap(bits), Count: n}
}

// sentFrames drains what the party sent.
func (r *passiveRig) sentFrames(t *testing.T) []any {
	t.Helper()
	var frames []any
	for len(r.out.ch) > 0 {
		if m := r.decode(t, <-r.out.ch); m != nil {
			frames = append(frames, m)
		}
	}
	return frames
}

// decode reads one frame the party sent, or folds it into r.cts and
// returns nil when it is a node's ciphertext.
func (r *passiveRig) decode(t *testing.T, b []byte) any {
	t.Helper()
	m, err := wire.Binary.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if ct, ok := m.(MsgHistCt); ok {
		k := [2]int{ct.Tree, int(ct.Node)}
		for len(r.cts[k]) <= ct.Index {
			r.cts[k] = append(r.cts[k], nil)
		}
		r.cts[k][ct.Index] = ct.Ct
		return nil
	}
	return m
}

// TestPassivePartyStaysInsideItsWorkerBudget: through the root path and
// three levels of node tasks, the last four wide, the party never has more
// than cfg.Workers units in flight, and when run returns its goroutines
// are gone.
func TestPassivePartyStaysInsideItsWorkerBudget(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		baseline := runtime.NumGoroutine()
		const rows = 90
		r := newPassiveRig(t, rows, 4, workers)
		r.p.cfg.MaxDepth = 4 // layer 2's four splits each build a child
		counter := &countingScheme{}
		r.feed(t,
			MsgDecisions{Nodes: []NodeDecision{splitDecision(rootID, 2, 3, rows, 40)}},
			MsgDecisions{Layer: 1, Nodes: []NodeDecision{splitDecision(2, 4, 5, 40, 3), splitDecision(3, 6, 7, 50, 25)}},
			MsgDecisions{Layer: 2, Nodes: []NodeDecision{splitDecision(4, 8, 9, 3, 1), splitDecision(5, 10, 11, 37, 18),
				splitDecision(6, 12, 13, 25, 12), splitDecision(7, 14, 15, 25, 10)}},
			MsgTreeDone{}, MsgShutdown{})
		// Install the counter once setup has built the scheme.
		setup, err := r.p.link.recv()
		if err != nil {
			t.Fatal(err)
		}
		if err := r.p.handleSetup(setup.(MsgSetup)); err != nil {
			t.Fatal(err)
		}
		counter.Scheme = r.p.scheme
		r.p.scheme = counter
		r.p.codec = fixedpoint.NewCodec(counter, fixedpoint.WithExponents(r.p.cfg.BaseExp, r.p.cfg.ExpSpread))
		if _, err := r.p.run(); err != nil {
			t.Fatal(err)
		}
		perLayer := map[int]int{}
		for _, m := range r.sentFrames(t) {
			if h, ok := m.(MsgHistograms); ok {
				perLayer[h.Layer] += len(h.Nodes)
			}
		}
		if want := map[int]int{0: 1, 1: 1, 2: 2, 3: 4}; !maps.Equal(perLayer, want) {
			t.Errorf("workers=%d: histograms per layer %v, want %v", workers, perLayer, want)
		}
		if perLayer[3] <= workers {
			t.Fatalf("test premise broken: layer 3 queued %d tasks on %d workers", perLayer[3], workers)
		}
		if peak := counter.peak.Load(); peak > int64(workers) || peak == 0 {
			t.Errorf("workers=%d: %d homomorphic operations in flight at once", workers, peak)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Errorf("workers=%d: %d goroutines after run returned, %d before the party existed", workers, n, baseline)
		}
	}
}

// closableTransport is a chanTransport whose Receive fails once closed.
type closableTransport struct {
	chanTransport
	closed chan struct{}
}

func (c closableTransport) Receive() ([]byte, error) {
	select {
	case b := <-c.ch:
		return b, nil
	case <-c.closed:
		return nil, errors.New("transport closed")
	}
}

// TestPassivePumpLeavesNoGoroutine: the party's receive pump is gone once
// run has returned on B's abort, and once the transport closes after run
// rejected a frame — the pump was then waiting for a frame that never
// comes.
func TestPassivePumpLeavesNoGoroutine(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame any
		close bool
	}{
		{"B aborts", MsgAbort{Party: 1, Reason: "B gave up"}, false},
		{"party rejects", MsgDecisions{Nodes: []NodeDecision{{Node: 999, Action: ActionLeaf}}}, true},
	} {
		baseline := runtime.NumGoroutine()
		r := newPassiveRig(t, 40, 2, 2)
		in := closableTransport{chanTransport: r.in, closed: make(chan struct{})}
		r.p.link = NewLink(pairTransport{send: r.out.Send, recv: in.Receive})
		r.feed(t, tc.frame)
		if _, err := r.p.run(); err == nil {
			t.Fatalf("%s: run returned no error", tc.name)
		}
		if tc.close {
			close(in.closed)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Errorf("%s: %d goroutines after run returned, %d before the party existed", tc.name, n, baseline)
		}
	}
}

// TestAbortedTaskNeverRunsAndIsNoFailure: a task aborted while its units
// are still queued runs none of them, sends nothing, and does not fail the
// session.
func TestAbortedTaskNeverRunsAndIsNoFailure(t *testing.T) {
	r := newPassiveRig(t, 40, 2, 1).primed(t)
	before := len(r.sentFrames(t))
	// Hold the party's only worker, queue node 2 behind it, abort it.
	hold, held := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- r.p.units.do(nil, 1, func(int) error { close(held); <-hold; return nil })
	}()
	<-held
	built := r.p.stats.BuildHistTime()
	r.p.scheduleHist(1, NodeHist{Node: 2, Parent: rootID, Sibling: 3}, allInstances(10))
	r.p.startPasses()
	r.p.abortChildren(2)
	close(hold)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	r.p.taskWG.Wait()
	if err := r.p.failed(); err != nil {
		t.Errorf("aborted task failed the session: %v", err)
	}
	if sent := r.sentFrames(t); len(sent) != 0 || len(r.cts) != 1 || before != 3 {
		t.Errorf("aborted task sent %d frames (%d before it)", len(sent), before)
	}
	if r.p.stats.BuildHistTime() != built || r.p.stats.AbortedTasks() != 1 {
		t.Errorf("aborted task swept anyway (aborted tasks %d)", r.p.stats.AbortedTasks())
	}
}

// TestFailingUnitsFailTheSessionOnce: the three node tasks of a layer,
// queued on two workers, whose sweeps all lose their shard fail the session
// with the first error and one MsgAbort.
func TestFailingUnitsFailTheSessionOnce(t *testing.T) {
	const rows = 60
	r := newPassiveRig(t, rows, 2, 2)
	r.p.cfg.MaxDepth = 4
	view := &failingView{BinView: r.p.view, good: 1 << 30}
	r.p.view = view
	done := make(chan error, 1)
	go func() {
		_, err := r.p.run()
		done <- err
	}()
	// Layers 0 and 1 build their nodes; then every read fails.
	r.feed(t,
		MsgDecisions{Nodes: []NodeDecision{splitDecision(rootID, 2, 3, rows, 30)}},
		MsgDecisions{Layer: 1, Nodes: []NodeDecision{splitDecision(2, 4, 5, 30, 10), splitDecision(3, 6, 7, 30, 20)}})
	for hists := 0; hists < 4; {
		if _, ok := r.decode(t, <-r.out.ch).(MsgHistograms); ok {
			hists++
		}
	}
	view.good = int(view.reads.Load())
	layer2 := []NodeDecision{splitDecision(4, 8, 9, 10, 5), splitDecision(5, 10, 11, 20, 10), splitDecision(7, 12, 13, 10, 5)}
	if len(layer2) <= cap(r.p.units) {
		t.Fatalf("test premise broken: %d tasks on %d workers", len(layer2), cap(r.p.units))
	}
	r.post(t, MsgDecisions{Layer: 2, Nodes: layer2}, MsgTreeDone{}, MsgShutdown{})
	if err := <-done; !errors.Is(err, errShardGone) {
		t.Fatalf("run returned %v, want the shard error", err)
	}
	aborts := 0
	for _, m := range r.sentFrames(t) {
		if ab, ok := m.(MsgAbort); ok {
			aborts++
			if !strings.Contains(ab.Reason, errShardGone.Error()) {
				t.Errorf("abort reason %q", ab.Reason)
			}
		}
	}
	if aborts != 1 {
		t.Errorf("%d MsgAbort frames for failing tasks, want 1", aborts)
	}
}
