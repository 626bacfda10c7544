// Package mq is the cross-party communication substrate of the
// reproduction, standing in for the Apache Pulsar deployment of the paper
// (Section 3.3): topic-based message queues with effectively-once delivery
// (duplicate suppression by message ID), HMAC token authentication, and a
// WAN shaper that models the constrained public link between the two data
// centers (300 Mbps in the paper's testbed) as a serialized pipe: senders
// queue for the link, and a message becomes receivable one propagation
// latency after its last byte left (shaper.go). A TCP gateway (tcp.go)
// allows parties in separate processes to attach to the same broker.
package mq

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vf2boost/internal/clock"
)

// ErrClosed is returned by operations on a closed broker or topic.
var ErrClosed = errors.New("mq: closed")

// ErrAuth is returned when a producer or consumer presents a bad token.
var ErrAuth = errors.New("mq: authentication failed")

// Message is one queued payload.
type Message struct {
	// ID is the producer-scoped sequence number used for duplicate
	// suppression.
	ID uint64
	// Producer identifies the sending producer within its topic.
	Producer uint64
	// Payload is the opaque body.
	Payload []byte
	// deliverAt is when the shaped link has carried the message to the
	// far end; consumers do not see it earlier. Zero on an unshaped link.
	deliverAt time.Time
}

// Broker routes messages between producers and consumers by topic name.
// Every topic is a FIFO queue with a single consumer group (the federated
// protocol pairs each worker with exactly one opposite worker, Section
// 3.1, so fan-out is not needed).
type Broker struct {
	mu     sync.Mutex
	topics map[string]*topic
	secret []byte
	shaper *Shaper
	closed bool

	producerSeq uint64

	bytesSent atomic.Int64
	msgsSent  atomic.Int64
	dupsSeen  atomic.Int64
}

type topic struct {
	mu     sync.Mutex
	cond   *sync.Cond
	clock  clock.Clock
	queue  []Message
	seen   map[uint64]uint64 // producer -> highest contiguous ID delivered
	closed bool
}

// wake rouses every consumer waiting on the topic to look at it again.
func (t *topic) wake() {
	t.mu.Lock()
	t.cond.Broadcast()
	t.mu.Unlock()
}

// Option configures a broker.
type Option func(*Broker)

// WithAuth requires producers and consumers to present Token(secret,
// topic) when attaching.
func WithAuth(secret []byte) Option { return func(b *Broker) { b.secret = secret } }

// WithShaper routes all deliveries through the WAN shaper.
func WithShaper(s *Shaper) Option { return func(b *Broker) { b.shaper = s } }

// NewBroker creates an empty broker.
func NewBroker(opts ...Option) *Broker {
	b := &Broker{topics: make(map[string]*topic)}
	for _, o := range opts {
		o(b)
	}
	return b
}

func (b *Broker) getTopic(name string) (*topic, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	t, ok := b.topics[name]
	if !ok {
		t = &topic{seen: make(map[uint64]uint64), clock: clock.Wall{}}
		if b.shaper != nil {
			t.clock = b.shaper.clock
		}
		t.cond = sync.NewCond(&t.mu)
		b.topics[name] = t
	}
	return t, nil
}

func (b *Broker) authorize(topicName, token string) error {
	if len(b.secret) == 0 {
		return nil
	}
	if !VerifyToken(b.secret, topicName, token) {
		return ErrAuth
	}
	return nil
}

// Producer attaches a producer to a topic.
func (b *Broker) Producer(topicName, token string) (*Producer, error) {
	if err := b.authorize(topicName, token); err != nil {
		return nil, err
	}
	t, err := b.getTopic(topicName)
	if err != nil {
		return nil, err
	}
	id := atomic.AddUint64(&b.producerSeq, 1)
	return &Producer{broker: b, topic: t, id: id}, nil
}

// Consumer attaches a consumer to a topic.
func (b *Broker) Consumer(topicName, token string) (*Consumer, error) {
	if err := b.authorize(topicName, token); err != nil {
		return nil, err
	}
	t, err := b.getTopic(topicName)
	if err != nil {
		return nil, err
	}
	return &Consumer{topic: t}, nil
}

// Close shuts down the broker; blocked consumers are woken with ErrClosed.
func (b *Broker) Close() {
	b.mu.Lock()
	b.closed = true
	topics := make([]*topic, 0, len(b.topics))
	for _, t := range b.topics {
		topics = append(topics, t)
	}
	b.mu.Unlock()
	for _, t := range topics {
		t.mu.Lock()
		t.closed = true
		t.cond.Broadcast()
		t.mu.Unlock()
	}
}

// BytesSent returns the total payload bytes accepted across all topics.
func (b *Broker) BytesSent() int64 { return b.bytesSent.Load() }

// MessagesSent returns the number of unique messages delivered to queues.
func (b *Broker) MessagesSent() int64 { return b.msgsSent.Load() }

// DuplicatesSuppressed returns the number of redelivered messages dropped
// by the effectively-once filter.
func (b *Broker) DuplicatesSuppressed() int64 { return b.dupsSeen.Load() }

// TopicDepth returns the number of messages currently queued on a topic
// (published but not yet consumed) — the backpressure gauge of an online
// serving deployment. On a shaped link that includes messages still in
// flight, which no consumer can receive yet. An unknown topic has depth 0.
func (b *Broker) TopicDepth(name string) int {
	b.mu.Lock()
	t, ok := b.topics[name]
	b.mu.Unlock()
	if !ok {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.queue)
}

// TopicDepths snapshots the queue depth of every topic the broker knows.
func (b *Broker) TopicDepths() map[string]int {
	b.mu.Lock()
	topics := make(map[string]*topic, len(b.topics))
	for name, t := range b.topics {
		topics[name] = t
	}
	b.mu.Unlock()
	out := make(map[string]int, len(topics))
	for name, t := range topics {
		t.mu.Lock()
		out[name] = len(t.queue)
		t.mu.Unlock()
	}
	return out
}

// Producer publishes messages to one topic.
type Producer struct {
	broker *Broker
	topic  *topic
	id     uint64
	seq    uint64
}

// Send publishes a payload with the next sequence number, blocking until
// its slot on the WAN link starts if a shaper is configured.
func (p *Producer) Send(payload []byte) error {
	p.seq++
	return p.SendWithID(p.seq, payload)
}

// SendContext is Send with a deadline: an already-expired context
// reserves nothing, and one that expires while the producer waits for its
// slot aborts the send with the context's error — the reservation is
// kept, the message is not enqueued. Used by the scoring server so a
// congested link cannot pin a round past its budget.
func (p *Producer) SendContext(ctx context.Context, payload []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p.seq++
	return p.transmit(ctx, p.seq, payload)
}

// SendWithID publishes with an explicit sequence number; re-sending an
// already-delivered ID is a no-op (effectively-once semantics, used by
// retry loops in unreliable transports).
func (p *Producer) SendWithID(id uint64, payload []byte) error {
	return p.transmit(context.Background(), id, payload)
}

// transmit takes the message across the shaped link, if any, and
// enqueues it stamped with its delivery time.
func (p *Producer) transmit(ctx context.Context, id uint64, payload []byte) error {
	var deliverAt time.Time
	if sh := p.broker.shaper; sh != nil {
		var err error
		if deliverAt, err = sh.TransmitContext(ctx, len(payload)); err != nil {
			return err
		}
	}
	return p.enqueue(id, payload, deliverAt)
}

// enqueue appends one message to the topic under dup suppression.
func (p *Producer) enqueue(id uint64, payload []byte, deliverAt time.Time) error {
	t := p.topic
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	if id <= t.seen[p.id] {
		p.broker.dupsSeen.Add(1)
		return nil
	}
	t.seen[p.id] = id
	t.queue = append(t.queue, Message{ID: id, Producer: p.id, Payload: payload, deliverAt: deliverAt})
	p.broker.bytesSent.Add(int64(len(payload)))
	p.broker.msgsSent.Add(1)
	// Broadcast, not Signal: a consumer may be waiting with a deadline
	// this message does not meet while another could take it.
	t.cond.Broadcast()
	return nil
}

// Consumer receives messages from one topic in FIFO order.
type Consumer struct {
	topic  *topic
	closed bool // guarded by topic.mu
}

// Close detaches this consumer: a blocked Receive returns ErrClosed. The
// topic and other consumers are unaffected.
func (c *Consumer) Close() {
	t := c.topic
	t.mu.Lock()
	c.closed = true
	t.cond.Broadcast()
	t.mu.Unlock()
}

// Receive blocks until the head of the queue has been delivered by the
// link, the consumer is closed, or the broker closes. Delivery is FIFO: a
// message never overtakes one enqueued before it.
func (c *Consumer) Receive() ([]byte, error) { return c.receive(time.Time{}) }

// ReceiveTimeout is Receive with a deadline; it returns a timeout error if
// no message is deliverable in time.
func (c *Consumer) ReceiveTimeout(d time.Duration) ([]byte, error) {
	payload, err := c.receive(c.topic.clock.Now().Add(d))
	if err == errDeadline {
		err = fmt.Errorf("mq: receive timed out after %v", d)
	}
	return payload, err
}

var errDeadline = errors.New("mq: receive deadline passed")

// receive is the one wait loop behind Receive and ReceiveTimeout (a zero
// deadline means none). It sleeps on the topic's condition variable,
// which releases the topic lock, and is woken by enqueues, by Close of
// the consumer or the broker, and by a timer set for whichever comes
// first of the head's delivery time and the deadline.
func (c *Consumer) receive(deadline time.Time) ([]byte, error) {
	t := c.topic
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		// An unshaped topic without a deadline never reads the clock.
		var now, wakeAt time.Time
		if !deadline.IsZero() || (len(t.queue) > 0 && !t.queue[0].deliverAt.IsZero()) {
			now = t.clock.Now()
		}
		if len(t.queue) > 0 {
			head := t.queue[0]
			if !head.deliverAt.After(now) {
				t.queue = t.queue[1:]
				return head.Payload, nil
			}
			wakeAt = head.deliverAt
		}
		if t.closed || c.closed {
			return nil, ErrClosed
		}
		if !deadline.IsZero() {
			if !now.Before(deadline) {
				return nil, errDeadline
			}
			if wakeAt.IsZero() || deadline.Before(wakeAt) {
				wakeAt = deadline
			}
		}
		if wakeAt.IsZero() {
			t.cond.Wait()
			continue
		}
		stop := t.clock.AfterFunc(wakeAt.Sub(now), t.wake)
		t.cond.Wait()
		stop()
	}
}
