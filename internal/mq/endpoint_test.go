package mq

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"
)

// TestEndpointPairs: the broker and the gateway hand out the same
// Endpoint. Over either, two ends with crossed topics carry frames both
// ways under auth, an expired context sends nothing, and Close unblocks a
// pending Receive.
func TestEndpointPairs(t *testing.T) {
	secret := []byte("s")
	broker := NewBroker(WithAuth(secret))
	defer broker.Close()
	gw := NewGateway(broker)
	addr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	for name, attach := range map[string]func(send, recv string) (*Endpoint, error){
		"broker":  func(send, recv string) (*Endpoint, error) { return broker.Endpoint(send, recv, secret) },
		"gateway": func(send, recv string) (*Endpoint, error) { return DialEndpoint(addr, send, recv, secret) },
	} {
		t.Run(name, func(t *testing.T) {
			var _ io.Closer = (*Endpoint)(nil)
			a, err := attach(name+"-a2b", name+"-b2a")
			if err != nil {
				t.Fatal(err)
			}
			b, err := attach(name+"-b2a", name+"-a2b")
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if err := a.Send([]byte("ping")); err != nil {
				t.Fatal(err)
			}
			if got, err := b.Receive(); err != nil || !bytes.Equal(got, []byte("ping")) {
				t.Fatalf("b received %q, %v", got, err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := b.SendContext(ctx, []byte("late")); !errors.Is(err, context.Canceled) {
				t.Fatalf("SendContext on a cancelled context = %v", err)
			}
			if err := b.SendContext(context.Background(), []byte("pong")); err != nil {
				t.Fatal(err)
			}
			if got, err := a.Receive(); err != nil || !bytes.Equal(got, []byte("pong")) {
				t.Fatalf("a received %q, %v (the cancelled send went out?)", got, err)
			}

			done := make(chan error, 1)
			go func() { _, err := a.Receive(); done <- err }()
			a.Close()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("Receive on a closed endpoint returned a frame")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Close left Receive blocked")
			}
		})
	}
	if _, err := broker.Endpoint("x", "y", []byte("wrong")); !errors.Is(err, ErrAuth) {
		t.Errorf("an endpoint with the wrong secret attached: %v", err)
	}
}
