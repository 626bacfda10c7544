package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vf2boost/internal/clock"
)

// recordingScorer counts flushes and records batch sizes; margin = row*2.
type recordingScorer struct {
	mu      sync.Mutex
	batches [][]int32
	version uint64
	err     error
}

func (s *recordingScorer) score(_ context.Context, rows []int32) (BatchResult, error) {
	s.mu.Lock()
	s.batches = append(s.batches, append([]int32(nil), rows...))
	s.mu.Unlock()
	if s.err != nil {
		return BatchResult{}, s.err
	}
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = float64(r) * 2
	}
	return BatchResult{Margins: out, Version: s.version}, nil
}

func (s *recordingScorer) flushes() [][]int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]int32(nil), s.batches...)
}

// newFakeBatcher builds a batcher on virtual time: no quiet gap or MaxWait
// elapses until the test advances the returned clock.
func newFakeBatcher(cfg BatcherConfig, score BatchScorer) (*Batcher, *clock.Fake) {
	fk := clock.NewFake()
	cfg.clock = fk
	return NewBatcher(cfg, score), fk
}

// waitFor yields until cond holds — until the goroutines the test started
// have reached the state it names.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(failsafe)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("gave up waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// flushed is how many batches have left b, for any cause.
func flushed(b *Batcher) int64 {
	var n int64
	for c := FlushCause(0); c < numFlushCauses; c++ {
		n += b.cfg.met.Flushes(c)
	}
	return n
}

// scoreAll fires n concurrent Score calls for rows 0..n-1; the returned
// channel yields, once every call has returned, how many came back wrong.
func scoreAll(b *Batcher, n int, wantVersion uint64) <-chan int64 {
	out := make(chan int64, 1)
	var wg sync.WaitGroup
	var wrong atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(row int32) {
			defer wg.Done()
			margin, version, err := b.Score(context.Background(), row)
			if err != nil || margin != float64(row)*2 || version != wantVersion {
				wrong.Add(1)
			}
		}(int32(i))
	}
	go func() {
		wg.Wait()
		out <- wrong.Load()
	}()
	return out
}

// expectAllRight waits for a scoreAll batch of n calls to return.
func expectAllRight(t *testing.T, wrong <-chan int64, n int) {
	t.Helper()
	select {
	case w := <-wrong:
		if w > 0 {
			t.Fatalf("%d of %d scores wrong", w, n)
		}
	case <-time.After(failsafe):
		t.Fatalf("%d scores never returned", n)
	}
}

// expectRow waits for one enqueued row's outcome and checks its margin.
func expectRow(t *testing.T, ch <-chan scoreResult, row int32) {
	t.Helper()
	select {
	case r := <-ch:
		if r.err != nil || r.res.Margin != float64(row)*2 {
			t.Fatalf("row %d: margin %v, err %v", row, r.res.Margin, r.err)
		}
	case <-time.After(failsafe):
		t.Fatalf("row %d never answered", row)
	}
}

// TestBatcherFlushBySize: a full batch flushes immediately, without
// waiting for any timer.
func TestBatcherFlushBySize(t *testing.T) {
	sc := &recordingScorer{version: 7}
	b, _ := newFakeBatcher(BatcherConfig{MaxBatch: 4, MaxWait: time.Hour}, sc.score)
	defer b.Close()
	expectAllRight(t, scoreAll(b, 8, 7), 8) // the clock never moves
	for _, batch := range sc.flushes() {
		if len(batch) != 4 {
			t.Errorf("batch of %d rows, want MaxBatch 4", len(batch))
		}
	}
	if n := b.cfg.met.Flushes(FlushFull); n != 2 {
		t.Errorf("8 requests over MaxBatch 4 flushed full %d times, want 2", n)
	}
}

// TestBatcherFlushByDeadline: a partial batch flushes by timer, as one
// batch, and not before its quiet gap.
func TestBatcherFlushByDeadline(t *testing.T) {
	sc := &recordingScorer{version: 1}
	b, fk := newFakeBatcher(BatcherConfig{MaxBatch: 1000, MaxWait: 20 * time.Millisecond}, sc.score)
	defer b.Close()
	wrong := scoreAll(b, 3, 1)
	waitFor(t, "3 requests queued", func() bool { return b.Queued() == 3 })
	fk.Advance(20*time.Millisecond/8 - time.Nanosecond)
	if n := flushed(b); n != 0 {
		t.Fatalf("%d flushes before the quiet gap", n)
	}
	fk.Advance(time.Nanosecond)
	expectAllRight(t, wrong, 3)
	flushes := sc.flushes()
	if len(flushes) != 1 || len(flushes[0]) != 3 {
		t.Errorf("flushes %v, want one of 3 rows", flushes)
	}
}

// TestBatcherLoneRequestFlushesWhenQuiet: a request nobody joins leaves
// at the quiet gap, MaxWait/8, not at MaxWait.
func TestBatcherLoneRequestFlushesWhenQuiet(t *testing.T) {
	sc := &recordingScorer{version: 1}
	b, fk := newFakeBatcher(BatcherConfig{MaxWait: 2 * time.Millisecond}, sc.score)
	defer b.Close()
	ch, err := b.enqueue(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	fk.Advance(250*time.Microsecond - time.Nanosecond)
	if n := flushed(b); n != 0 {
		t.Fatalf("lone request left before the quiet gap (%d flushes)", n)
	}
	fk.Advance(time.Nanosecond)
	if n := b.cfg.met.Flushes(FlushQuiet); n != 1 {
		t.Fatalf("quiet flushes = %d at the quiet gap, want 1", n)
	}
	expectRow(t, ch, 5)
}

// TestBatcherTrickleFlushesAtMaxWait: requests that keep arriving inside
// the quiet gap hold the batch open only until its first has waited
// MaxWait.
func TestBatcherTrickleFlushesAtMaxWait(t *testing.T) {
	sc := &recordingScorer{version: 1}
	b, fk := newFakeBatcher(BatcherConfig{MaxWait: 2 * time.Millisecond}, sc.score)
	defer b.Close()
	const gap = 200 * time.Microsecond // inside the 250µs quiet gap
	var chans []<-chan scoreResult
	for i := 0; i < 10; i++ { // arrivals at 0, 0.2, ..., 1.8ms
		if n := flushed(b); n != 0 {
			t.Fatalf("trickle flushed after %d requests, %v in", i, time.Duration(i)*gap)
		}
		ch, err := b.enqueue(context.Background(), int32(i))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
		fk.Advance(gap)
	}
	if n := b.cfg.met.Flushes(FlushMaxWait); n != 1 {
		t.Fatalf("max-wait flushes = %d at MaxWait, want 1", n)
	}
	for i, ch := range chans {
		expectRow(t, ch, int32(i))
	}
	if f := sc.flushes(); len(f) != 1 || len(f[0]) != 10 {
		t.Errorf("flushes %v, want one of all 10 rows", f)
	}
}

// TestBatcherReleasedTogetherLeaveAsOne: callers that arrive at once —
// serve_wan's 32 closed-loop callers after their answers land — ride one
// round.
func TestBatcherReleasedTogetherLeaveAsOne(t *testing.T) {
	sc := &recordingScorer{version: 1}
	b, fk := newFakeBatcher(BatcherConfig{}, sc.score)
	defer b.Close()
	wrong := scoreAll(b, 32, 1)
	waitFor(t, "32 requests queued", func() bool { return b.Queued() == 32 })
	fk.Advance(250 * time.Microsecond)
	expectAllRight(t, wrong, 32)
	if f := sc.flushes(); len(f) != 1 || len(f[0]) != 32 {
		t.Errorf("%d flushes, want one of all 32 rows", len(f))
	}
}

// TestBatcherFillsWhileWindowBusy: a due batch that finds every window
// slot busy is not taken; it keeps taking requests up to MaxBatch, and
// leaves the moment a slot frees. The batch started behind it waits its
// turn for the next slot.
func TestBatcherFillsWhileWindowBusy(t *testing.T) {
	window := make(chan struct{}, 2)
	window <- struct{}{} // two bulk rounds hold the window
	window <- struct{}{}
	gate := make(chan struct{})
	sc := &recordingScorer{version: 1}
	b, fk := newFakeBatcher(BatcherConfig{MaxBatch: 4, MaxWait: 2 * time.Millisecond, window: window},
		func(ctx context.Context, rows []int32) (BatchResult, error) {
			res, err := sc.score(ctx, rows)
			<-gate // keep the slot until the test lets go
			return res, err
		})
	var chans []<-chan scoreResult
	enqueue := func(n int) {
		for i := 0; i < n; i++ {
			ch, err := b.enqueue(context.Background(), int32(len(chans)))
			if err != nil {
				t.Fatal(err)
			}
			chans = append(chans, ch)
		}
	}
	enqueue(3)
	fk.Advance(250 * time.Microsecond) // due: quiet
	enqueue(3)                         // the 4th joins the due batch; 5 and 6 start the next
	fk.Advance(2 * time.Millisecond)   // the next is due too
	if n := flushed(b); n != 0 {
		t.Fatalf("%d batches taken while every slot was busy", n)
	}

	<-window // a bulk round returns
	waitFor(t, "the first batch to take the freed slot", func() bool { return len(sc.flushes()) == 1 })
	if f := sc.flushes(); len(f[0]) != 4 {
		t.Fatalf("first batch carried %v, want the 4 rows it gathered while waiting", f[0])
	}
	<-window // the other returns
	waitFor(t, "the second batch to take the freed slot", func() bool { return len(sc.flushes()) == 2 })
	if f := sc.flushes(); len(f[1]) != 2 {
		t.Fatalf("second batch carried %v, want 2 rows", f[1])
	}
	if n := b.cfg.met.Flushes(FlushSlotFreed); n != 2 {
		t.Errorf("slot-freed flushes = %d, want 2", n)
	}
	close(gate)
	for i, ch := range chans {
		expectRow(t, ch, int32(i))
	}
	b.Close()
}

// TestBatcherShutdownDrain: Close flushes the pending batch instead of
// dropping it, and later Scores fail with ErrClosed.
func TestBatcherShutdownDrain(t *testing.T) {
	sc := &recordingScorer{version: 3}
	b, _ := newFakeBatcher(BatcherConfig{MaxBatch: 1000, MaxWait: time.Hour}, sc.score)
	const n = 3
	wrong := scoreAll(b, n, 3)
	// Nothing can flush them: MaxBatch 1000 and a clock that never moves.
	waitFor(t, "3 requests queued", func() bool { return b.Queued() == n })
	b.Close()
	expectAllRight(t, wrong, n)
	flushes := sc.flushes()
	if len(flushes) != 1 || len(flushes[0]) != n {
		t.Errorf("drain produced %d flushes %v, want one of %d rows", len(flushes), flushes, n)
	}
	if c := b.cfg.met.Flushes(FlushClose); c != 1 {
		t.Errorf("close flushes = %d, want 1", c)
	}
	if _, _, err := b.Score(context.Background(), 0); !errors.Is(err, ErrClosed) {
		t.Errorf("Score after Close = %v, want ErrClosed", err)
	}
}

// TestBatcherCloseDrainsFlushWaitingOnFullWindow: Close neither drops the
// batches waiting for a slot nor the one still gathering: it waits for
// the window, and they leave through it.
func TestBatcherCloseDrainsFlushWaitingOnFullWindow(t *testing.T) {
	window := make(chan struct{}, 1)
	window <- struct{}{} // a bulk round holds the window
	sc := &recordingScorer{version: 1}
	b, _ := newFakeBatcher(BatcherConfig{MaxBatch: 2, MaxWait: time.Hour, window: window}, sc.score)
	var chans []<-chan scoreResult
	for row := int32(0); row < 3; row++ { // rows 0, 1 fill a batch; row 2 gathers
		ch, err := b.enqueue(context.Background(), row)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	waitFor(t, "Close to begin", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.closed
	})
	select {
	case <-closed:
		t.Fatal("Close returned while its batches waited for a slot")
	default:
	}
	if n := flushed(b); n != 0 {
		t.Fatalf("%d batches taken while the window was full", n)
	}
	<-window // the bulk round returns
	select {
	case <-closed:
	case <-time.After(failsafe):
		t.Fatal("Close did not return once the window freed")
	}
	for i, ch := range chans {
		expectRow(t, ch, int32(i))
	}
	if n := b.cfg.met.Flushes(FlushClose); n != 2 {
		t.Errorf("close flushes = %d, want 2 (the full batch and the gathering one)", n)
	}
	if _, _, err := b.Score(context.Background(), 0); !errors.Is(err, ErrClosed) {
		t.Errorf("Score after Close = %v, want ErrClosed", err)
	}
}

// deadlineCtx carries a deadline on the fake clock's time line; it is
// never done by itself.
type deadlineCtx struct {
	context.Context
	at time.Time
}

func (c deadlineCtx) Deadline() (time.Time, bool) { return c.at, true }

// TestBatcherWaitingBatchGivesUpAtDeadline: a batch waiting for a slot
// gives up at its most patient member's deadline — pushed out by a
// member that joined while it waited — and releases its queue places.
func TestBatcherWaitingBatchGivesUpAtDeadline(t *testing.T) {
	window := make(chan struct{}, 1)
	window <- struct{}{}
	b, fk := newFakeBatcher(BatcherConfig{MaxWait: 2 * time.Millisecond, window: window}, (&recordingScorer{}).score)
	defer b.Close()
	t0 := fk.Now()
	ch1, err := b.enqueue(deadlineCtx{context.Background(), t0.Add(5 * time.Millisecond)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	fk.Advance(250 * time.Microsecond) // due, waiting for the slot
	fk.BlockUntil(1)                   // the wait's deadline timer
	ch2, err := b.enqueue(deadlineCtx{context.Background(), t0.Add(10 * time.Millisecond)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	fk.Advance(4750 * time.Microsecond) // row 1's deadline: row 2 still waits
	rearmed := make(chan struct{})
	go func() {
		fk.BlockUntil(1)
		close(rearmed)
	}()
	select {
	case <-rearmed:
	case r := <-ch1:
		t.Fatalf("the batch gave up at its first member's deadline: %v", r.err)
	case <-time.After(failsafe):
		t.Fatal("the wait never re-armed")
	}
	fk.Advance(5 * time.Millisecond)
	for _, ch := range []<-chan scoreResult{ch1, ch2} {
		select {
		case r := <-ch:
			if !errors.Is(r.err, context.DeadlineExceeded) {
				t.Errorf("waiting member got %v, want context.DeadlineExceeded", r.err)
			}
		case <-time.After(failsafe):
			t.Fatal("the batch never gave up")
		}
	}
	waitFor(t, "the queue to empty", func() bool { return b.Queued() == 0 })
	if n := flushed(b); n != 0 {
		t.Errorf("%d flushes, want none: the slot never freed", n)
	}
	if n := b.cfg.met.Timeouts(); n != 1 {
		t.Errorf("timeouts = %d, want 1", n)
	}
	<-window
}

// TestBatcherOpenLoopOnFullWindow: 3,000 requests a second, each arriving
// on its own, into a 4-slot scorer whose rounds take 10ms — 400 rounds a
// second at most — for 2s of virtual time. Batches grow while the window
// is full instead of queueing behind it, so every request is answered
// within two round times, and no batch is ever taken without a slot.
func TestBatcherOpenLoopOnFullWindow(t *testing.T) {
	const (
		rate  = 3000
		slots = 4
		round = 10 * time.Millisecond
		span  = 2 * time.Second
		step  = 50 * time.Microsecond // the load generator's time resolution
	)
	window := make(chan struct{}, slots)
	var started, fired, running atomic.Int64
	var fk *clock.Fake
	b, fk := newFakeBatcher(BatcherConfig{window: window}, func(_ context.Context, rows []int32) (BatchResult, error) {
		if n := running.Add(1); n > slots {
			t.Errorf("%d rounds in flight on a %d-slot window", n, slots)
		}
		done := make(chan struct{})
		fk.AfterFunc(round, func() {
			fired.Add(1)
			close(done)
		})
		started.Add(1)
		<-done
		running.Add(-1)
		return BatchResult{Margins: make([]float64, len(rows))}, nil
	})

	// settled: every taken batch has a round on the clock and holds its
	// slot, every finished round has given its slot back, and no due
	// batch is left waiting beside a free slot.
	settled := func() bool {
		b.mu.Lock()
		waiting := len(b.waiting)
		b.mu.Unlock()
		held := int64(len(window))
		s, f := started.Load(), fired.Load()
		return flushed(b) == s && held == s-f && (waiting == 0 || held == slots)
	}
	type request struct {
		at time.Time
		ch <-chan scoreResult
	}
	var open []request
	var worst time.Duration
	tick := func(d time.Duration) {
		fk.Advance(d)
		waitFor(t, "the batcher to settle", settled)
		now := fk.Now()
		kept := open[:0]
		for _, r := range open {
			select {
			case res := <-r.ch:
				if res.err != nil {
					t.Fatalf("request sent at %v failed: %v", r.at, res.err)
				}
				worst = max(worst, now.Sub(r.at))
			default:
				kept = append(kept, r)
			}
		}
		open = kept
	}

	start := fk.Now()
	n := int(span / time.Second * rate)
	for i := 0; i < n; i++ {
		at := start.Add(time.Duration(i) * time.Second / rate)
		for fk.Now().Before(at) {
			tick(min(step, at.Sub(fk.Now())))
		}
		ch, err := b.enqueue(context.Background(), int32(i))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		open = append(open, request{at, ch})
	}
	for len(open) > 0 && fk.Now().Sub(start) < span+10*round {
		tick(step)
	}
	if len(open) > 0 {
		t.Fatalf("%d requests unanswered %v after the last arrival", len(open), 10*round)
	}
	if worst > 2*round {
		t.Errorf("slowest request took %v, want within two round times (%v)", worst, 2*round)
	}
	if b.cfg.met.Flushes(FlushSlotFreed) == 0 {
		t.Error("no batch ever waited for a slot: the load did not fill the window")
	}
	t.Logf("%d requests in %d batches (mean %.1f rows), slowest %v",
		n, flushed(b), b.cfg.met.FlushSize().Mean(), worst)
	b.Close() // not deferred: after a failure above it would wait on rounds the clock never ends
}

// TestBatcherErrorFansOut: a failed round fails every waiter in it.
func TestBatcherErrorFansOut(t *testing.T) {
	boom := errors.New("boom")
	sc := &recordingScorer{err: boom}
	b, _ := newFakeBatcher(BatcherConfig{MaxBatch: 2, MaxWait: time.Hour}, sc.score)
	defer b.Close()
	var wg sync.WaitGroup
	var errs atomic.Int64
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(row int32) {
			defer wg.Done()
			if _, _, err := b.Score(context.Background(), row); errors.Is(err, boom) {
				errs.Add(1)
			}
		}(int32(i))
	}
	wg.Wait()
	if errs.Load() != 2 {
		t.Errorf("%d of 2 waiters saw the round error", errs.Load())
	}
}

// TestBatcherQueueBound: requests beyond MaxQueue are shed with
// ErrOverloaded instead of queueing, and admission re-opens once the
// queue drains.
func TestBatcherQueueBound(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int64
	b, _ := newFakeBatcher(BatcherConfig{MaxBatch: 1000, MaxWait: time.Hour, MaxQueue: 2},
		func(_ context.Context, rows []int32) (BatchResult, error) {
			calls.Add(1)
			<-release
			return BatchResult{Margins: make([]float64, len(rows)), Version: 1}, nil
		})

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(row int32) {
			defer wg.Done()
			if _, _, err := b.Score(context.Background(), row); err != nil {
				t.Errorf("admitted request failed: %v", err)
			}
		}(int32(i))
	}
	// Nothing can flush them: MaxBatch 1000 and a clock that never moves.
	waitFor(t, "2 requests queued", func() bool { return b.Queued() == 2 })
	// The 3rd request must shed immediately, not block.
	start := time.Now()
	if _, _, err := b.Score(context.Background(), 9); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-quota Score = %v, want ErrOverloaded", err)
	}
	if time.Since(start) > time.Second {
		t.Error("shed decision blocked")
	}
	close(release)
	b.Close() // drains the two queued rows
	wg.Wait()
	if b.Queued() != 0 {
		t.Errorf("queued = %d after drain, want 0", b.Queued())
	}
	if calls.Load() == 0 {
		t.Error("queued rows never scored")
	}
}

// TestBatcherPartialFansOut: a degraded round's missing-party list reaches
// every waiter in the batch.
func TestBatcherPartialFansOut(t *testing.T) {
	b, _ := newFakeBatcher(BatcherConfig{MaxBatch: 2, MaxWait: time.Hour},
		func(_ context.Context, rows []int32) (BatchResult, error) {
			return BatchResult{Margins: make([]float64, len(rows)), Version: 5, Missing: []int{0, 2}}, nil
		})
	defer b.Close()
	var wg sync.WaitGroup
	var partial atomic.Int64
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(row int32) {
			defer wg.Done()
			res, err := b.ScoreRow(context.Background(), row)
			if err != nil {
				t.Errorf("ScoreRow: %v", err)
				return
			}
			if res.Partial() && len(res.Missing) == 2 && res.Version == 5 {
				partial.Add(1)
			}
		}(int32(i))
	}
	wg.Wait()
	if partial.Load() != 2 {
		t.Errorf("%d of 2 waiters saw the partial outcome", partial.Load())
	}
}

// TestBatcherDeadlinePropagates: the flush context carries the most
// patient waiter's deadline.
func TestBatcherDeadlinePropagates(t *testing.T) {
	got := make(chan time.Time, 1)
	b, _ := newFakeBatcher(BatcherConfig{MaxBatch: 1, MaxWait: time.Hour},
		func(ctx context.Context, rows []int32) (BatchResult, error) {
			dl, _ := ctx.Deadline()
			got <- dl
			return BatchResult{Margins: make([]float64, len(rows))}, nil
		})
	defer b.Close()
	want := time.Now().Add(250 * time.Millisecond)
	ctx, cancel := context.WithDeadline(context.Background(), want)
	defer cancel()
	if _, _, err := b.Score(ctx, 0); err != nil {
		t.Fatal(err)
	}
	dl := <-got
	if dl.IsZero() || dl.After(want.Add(time.Millisecond)) || dl.Before(want.Add(-time.Millisecond)) {
		t.Errorf("flush deadline %v, want ~%v", dl, want)
	}
}

// TestBatcherContextCancel: an abandoned waiter unblocks on its context
// without wedging the flush.
func TestBatcherContextCancel(t *testing.T) {
	sc := &recordingScorer{}
	b, _ := newFakeBatcher(BatcherConfig{MaxBatch: 1000, MaxWait: time.Hour}, sc.score)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := b.Score(ctx, 1)
		done <- err
	}()
	waitFor(t, "the request to queue", func() bool { return b.Queued() == 1 })
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Score = %v, want context.Canceled", err)
		}
	case <-time.After(failsafe):
		t.Fatal("Score did not unblock on context cancellation")
	}
	b.Close() // must still drain the abandoned row without blocking
}
