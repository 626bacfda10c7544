package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vf2boost/internal/clock"
)

// BatcherConfig bounds how long a request may wait for company — and how
// many requests may wait at all.
type BatcherConfig struct {
	// MaxBatch flushes a batch as soon as this many requests are pending
	// (default 64).
	MaxBatch int
	// MaxWait is the longest a request waits for company (default 2ms). A
	// batch flushes earlier once no request has joined it for MaxWait/8:
	// arrivals have stopped, and waiting longer only adds latency.
	MaxWait time.Duration
	// MaxQueue bounds the number of requests admitted but not yet
	// answered (pending + in-flight). Beyond it, Score sheds with
	// ErrOverloaded instead of queueing work that would only time out
	// (default 1024).
	MaxQueue int

	// clock is the time source of the quiet gap, MaxWait and the wait for
	// a window slot; tests put it on virtual time, everything else leaves
	// it nil for the wall clock.
	clock clock.Clock
	// window is the scoring pipeline's slots, one per round in flight
	// (the server's MaxInflight window): a flushed batch is taken only
	// once it holds one, and gives it back when its round returns. Nil
	// gives the batcher MaxQueue slots, which it cannot fill.
	window chan struct{}
	// met counts flushes by cause and size; nil keeps them private.
	met *Metrics
}

func (c *BatcherConfig) defaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 1024
	}
	if c.clock == nil {
		c.clock = clock.Wall{}
	}
}

// BatchResult is one federated round's outcome: margins for the batch,
// the model version the round was pinned to, and — in degraded mode —
// the passive parties that could not be consulted (Missing is empty for
// a full-fidelity round).
type BatchResult struct {
	Margins []float64
	Version uint64
	Missing []int
}

// RowResult is one request's scoring outcome.
type RowResult struct {
	Margin  float64
	Version uint64
	// Missing lists the passive parties absent from the round; non-empty
	// means Margin is a partial (B-plus-reachable-parties) score.
	Missing []int
}

// Partial reports whether the margin omitted any passive party.
func (r RowResult) Partial() bool { return len(r.Missing) > 0 }

// BatchScorer scores one micro-batch of shard rows in a single federated
// round. The context carries the batch's deadline; implementations must
// return (not hang) once it expires.
type BatchScorer func(ctx context.Context, rows []int32) (BatchResult, error)

// Batcher coalesces single-instance scoring requests into micro-batches:
// one WAN round-trip serves up to MaxBatch requests. A batch is due when
// it is full, when no request has joined it for MaxWait/8, or when its
// first request has waited MaxWait; it leaves once it holds a slot of
// the scoring window. A due batch that finds every slot busy keeps
// taking requests, up to MaxBatch, and leaves the moment a slot frees.
// Close drains instead of dropping, and admission is bounded by MaxQueue.
type Batcher struct {
	cfg   BatcherConfig
	score BatchScorer // called with a window slot held
	quiet time.Duration

	queued atomic.Int64 // admitted but unanswered requests

	mu       sync.Mutex
	cur      *batch   // the batch requests join; nil until the next arrives
	waiting  []*batch // due batches without a slot, oldest first; only the last can be cur
	awaiting bool     // awaitSlots is running
	closed   bool
	wg       sync.WaitGroup // awaitSlots and the rounds in flight
}

// batch is one micro-batch from its first request until it is taken.
type batch struct {
	reqs        []pendingScore
	first, last time.Time   // when its first and its latest request joined
	stop        func() bool // cancels its quiet/MaxWait timer
	due         bool        // a flush condition fired; it leaves with the next slot
}

type pendingScore struct {
	row      int32
	deadline time.Time // zero = unbounded
	ch       chan scoreResult
}

type scoreResult struct {
	res RowResult
	err error
}

// NewBatcher creates a batcher over a batch scorer.
func NewBatcher(cfg BatcherConfig, score BatchScorer) *Batcher {
	cfg.defaults()
	if cfg.window == nil {
		cfg.window = make(chan struct{}, cfg.MaxQueue) // every batch holds a request: never full
	}
	if cfg.met == nil {
		cfg.met = NewMetrics()
	}
	return &Batcher{cfg: cfg, score: score, quiet: cfg.MaxWait / 8}
}

// Queued returns the number of admitted but unanswered requests — the
// queue-depth gauge behind Retry-After on shed responses.
func (b *Batcher) Queued() int64 { return b.queued.Load() }

// MaxQueue returns the admission bound.
func (b *Batcher) MaxQueue() int { return b.cfg.MaxQueue }

// Score enqueues one row and blocks until its batch is scored, the context
// is done, or the batcher closes. It returns the margin and the model
// version the batch was pinned to.
func (b *Batcher) Score(ctx context.Context, row int32) (float64, uint64, error) {
	r, err := b.ScoreRow(ctx, row)
	return r.Margin, r.Version, err
}

// ScoreRow is Score with the full per-row outcome (including the
// missing-party list of a degraded round). The request's ctx deadline
// propagates into the federated round.
func (b *Batcher) ScoreRow(ctx context.Context, row int32) (RowResult, error) {
	ch, err := b.enqueue(ctx, row)
	if err != nil {
		return RowResult{}, err
	}
	select {
	case r := <-ch:
		return r.res, r.err
	case <-ctx.Done():
		// The batch may still score this row; the waiter just stops
		// listening (ch is buffered so the flush never blocks on it).
		return RowResult{}, ctx.Err()
	}
}

// enqueue admits one row into the gathering batch and returns the channel
// its outcome will arrive on.
func (b *Batcher) enqueue(ctx context.Context, row int32) (<-chan scoreResult, error) {
	p := pendingScore{row: row, ch: make(chan scoreResult, 1)}
	if dl, ok := ctx.Deadline(); ok {
		p.deadline = dl
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	if b.queued.Load() >= int64(b.cfg.MaxQueue) {
		return nil, ErrOverloaded
	}
	b.queued.Add(1)
	now := b.cfg.clock.Now()
	bt := b.cur
	if bt == nil {
		bt = &batch{first: now}
		b.cur = bt
		bt.stop = b.cfg.clock.AfterFunc(b.quiet, func() { b.expire(bt) })
	}
	bt.reqs = append(bt.reqs, p)
	bt.last = now
	if len(bt.reqs) >= b.cfg.MaxBatch {
		b.cur = nil // full: the next request starts a batch of its own
		if !bt.due {
			b.ready(bt, FlushFull)
		}
	}
	return p.ch, nil
}

// expire is a gathering batch's timer. The batch is due once no request
// has joined it for the quiet gap, or once its first request has waited
// MaxWait; until then the timer re-arms for the nearer of the two.
func (b *Batcher) expire(bt *batch) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if bt != b.cur || bt.due {
		return // full, closed or already due
	}
	now := b.cfg.clock.Now()
	quietAt, maxAt := bt.last.Add(b.quiet), bt.first.Add(b.cfg.MaxWait)
	switch {
	case !now.Before(quietAt):
		b.ready(bt, FlushQuiet)
	case !now.Before(maxAt):
		b.ready(bt, FlushMaxWait)
	default:
		next := min(quietAt.Sub(now), maxAt.Sub(now))
		bt.stop = b.cfg.clock.AfterFunc(next, func() { b.expire(bt) })
	}
}

// ready makes bt due. It leaves at once if a slot is free and no older
// batch is waiting for one; otherwise it queues for awaitSlots. Callers
// hold b.mu.
func (b *Batcher) ready(bt *batch, cause FlushCause) {
	bt.due = true
	bt.stop()
	if len(b.waiting) == 0 {
		select {
		case b.cfg.window <- struct{}{}:
			b.take(bt, cause)
			return
		default:
		}
	}
	b.waiting = append(b.waiting, bt)
	if !b.awaiting {
		b.awaiting = true
		b.wg.Add(1)
		go b.awaitSlots()
	}
}

// take starts the round of bt, which holds a window slot. A batch that
// leaves once Close has begun counts as drained. Callers hold b.mu.
func (b *Batcher) take(bt *batch, cause FlushCause) {
	if b.cur == bt {
		b.cur = nil
	}
	if b.closed {
		cause = FlushClose
	}
	b.cfg.met.ObserveFlush(cause, len(bt.reqs))
	b.wg.Add(1)
	go b.run(bt.reqs)
}

// awaitSlots hands the waiting batches, oldest first, each the next slot
// that frees; a batch still gathering keeps taking requests until then.
// A batch gives up at its most patient member's deadline, as its round
// would. It runs while any batch waits.
func (b *Batcher) awaitSlots() {
	defer b.wg.Done()
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.waiting) > 0 {
		bt := b.waiting[0]
		b.mu.Unlock()
		got := b.acquire(bt)
		b.mu.Lock()
		b.waiting = b.waiting[1:]
		if got {
			b.take(bt, FlushSlotFreed)
			continue
		}
		if b.cur == bt {
			b.cur = nil
		}
		b.cfg.met.ObserveTimeout()
		for _, p := range bt.reqs {
			p.ch <- scoreResult{err: context.DeadlineExceeded}
		}
		b.queued.Add(-int64(len(bt.reqs)))
	}
	b.awaiting = false
}

// acquire waits for a window slot for bt and reports whether it got one
// before bt's most patient member's deadline — which requests joining
// bt meanwhile may push out.
func (b *Batcher) acquire(bt *batch) bool {
	for {
		b.mu.Lock()
		dl, bounded := patience(bt.reqs)
		b.mu.Unlock()
		var expired <-chan struct{} // nil, never ready, for an unbounded batch
		stop := func() bool { return false }
		if bounded {
			d := dl.Sub(b.cfg.clock.Now())
			if d <= 0 {
				return false
			}
			expired, stop = clock.After(b.cfg.clock, d)
		}
		select {
		case b.cfg.window <- struct{}{}:
			stop()
			return true
		case <-expired:
		}
	}
}

// patience is the most patient request's deadline; bounded is false when
// some request waits without one.
func patience(reqs []pendingScore) (latest time.Time, bounded bool) {
	for _, p := range reqs {
		if p.deadline.IsZero() {
			return time.Time{}, false
		}
		if p.deadline.After(latest) {
			latest = p.deadline
		}
	}
	return latest, true
}

// run scores one taken batch, fans the results out and gives its window
// slot back. The round runs under the most patient member's deadline:
// impatient waiters give up on their own ctx without dragging the whole
// batch down with them.
func (b *Batcher) run(batch []pendingScore) {
	defer b.wg.Done()
	defer func() { <-b.cfg.window }()
	defer b.queued.Add(-int64(len(batch)))
	rows := make([]int32, len(batch))
	for i, p := range batch {
		rows[i] = p.row
	}
	ctx := context.Background()
	if latest, bounded := patience(batch); bounded {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, latest)
		defer cancel()
	}
	res, err := b.score(ctx, rows)
	if err == nil && len(res.Margins) != len(batch) {
		err = fmt.Errorf("serve: scorer returned %d margins for %d rows", len(res.Margins), len(batch))
	}
	for i, p := range batch {
		if err != nil {
			p.ch <- scoreResult{err: err}
		} else {
			p.ch <- scoreResult{res: RowResult{
				Margin:  res.Margins[i],
				Version: res.Version,
				Missing: res.Missing,
			}}
		}
	}
}

// Close drains: the gathering batch (if any) and every batch waiting for
// a slot leave through the window as final batches, rounds in flight
// complete, and subsequent Score calls fail with ErrClosed.
func (b *Batcher) Close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		if bt := b.cur; bt != nil && !bt.due {
			b.ready(bt, FlushClose)
		}
		b.cur = nil
	}
	b.mu.Unlock()
	b.wg.Wait()
}
