package mq

import (
	"context"
	"errors"
)

// Endpoint is one party's end of a cross-party link: a producer on the
// topic it sends to and a consumer on the topic it receives from. The
// in-process broker and the TCP gateway both hand out this type, so the
// protocol engines run over either unchanged.
type Endpoint struct {
	send    func(context.Context, []byte) error
	receive func() ([]byte, error)
	close   func() error
}

// Endpoint attaches a producer on sendTopic and a consumer on recvTopic,
// each presenting its Token under secret.
func (b *Broker) Endpoint(sendTopic, recvTopic string, secret []byte) (*Endpoint, error) {
	prod, err := b.Producer(sendTopic, Token(secret, sendTopic))
	if err != nil {
		return nil, err
	}
	cons, err := b.Consumer(recvTopic, Token(secret, recvTopic))
	if err != nil {
		return nil, err
	}
	// Closing detaches the consumer, which unblocks a pending Receive; a
	// producer holds nothing to release.
	return &Endpoint{send: prod.SendContext, receive: cons.Receive, close: func() error { cons.Close(); return nil }}, nil
}

// DialEndpoint is Endpoint over the TCP gateway at addr.
func DialEndpoint(addr, sendTopic, recvTopic string, secret []byte) (*Endpoint, error) {
	prod, err := DialProducer(addr, sendTopic, Token(secret, sendTopic))
	if err != nil {
		return nil, err
	}
	cons, err := DialConsumer(addr, recvTopic, Token(secret, recvTopic))
	if err != nil {
		prod.Close()
		return nil, err
	}
	send := func(ctx context.Context, payload []byte) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return prod.Send(payload)
	}
	// Closing severs both connections, so the gateway detaches its
	// consumer: a lingering one would keep taking queued frames.
	return &Endpoint{send: send, receive: cons.Receive, close: func() error { return errors.Join(prod.Close(), cons.Close()) }}, nil
}

// Send publishes one payload.
func (e *Endpoint) Send(payload []byte) error { return e.send(context.Background(), payload) }

// SendContext is Send with a deadline; on a shaped in-process link a
// context that expires while the send waits for its slot aborts it.
func (e *Endpoint) SendContext(ctx context.Context, payload []byte) error {
	return e.send(ctx, payload)
}

// Receive blocks for the next payload.
func (e *Endpoint) Receive() ([]byte, error) { return e.receive() }

// Close detaches the endpoint: a blocked Receive returns.
func (e *Endpoint) Close() error { return e.close() }
