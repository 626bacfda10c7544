package serve

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"vf2boost/internal/clock"
	"vf2boost/internal/core"
	"vf2boost/internal/wire"
)

// undecodableFrames are frames a worker receives but cannot read: the
// open of a server still pinned to the retired gob codec, and a message ID
// this build does not know.
func undecodableFrames(t *testing.T) map[string][]byte {
	t.Helper()
	open, err := wire.Binary.Encode(core.MsgScoreOpen{Proto: core.ScoreProtoVersion, Session: "gob-pinned"})
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"retired gob tag":    append([]byte{wire.TagGob}, open[1:]...),
		"unknown message ID": {wire.TagBinaryV1, 0xFF, 0xFE, 0, 0, 0, 0},
	}
}

// TestWorkerEndsOnUndecodableFrame: an undecodable frame is a broken or
// incompatible peer, not a disconnect. Run ends with core.ErrUndecodable,
// and RunLoop ends with it after its first dial instead of re-dialing the
// same peer forever.
func TestWorkerEndsOnUndecodableFrame(t *testing.T) {
	parts := twoParts(t, 20, 93)
	for name, frame := range undecodableFrames(t) {
		worker := NewPassiveWorker(0, parts[0], NewRegistry())
		serverTr, workerTr := pipePair()
		if err := serverTr.Send(frame); err != nil {
			t.Fatal(err)
		}
		if err := worker.Run(workerTr); !errors.Is(err, core.ErrUndecodable) {
			t.Errorf("%s: Run returned %v, want core.ErrUndecodable", name, err)
		}

		dials := 0
		dial := func() (core.Transport, error) {
			dials++
			if dials > 1 {
				return nil, fmt.Errorf("gateway down")
			}
			serverTr, workerTr := pipePair()
			return workerTr, serverTr.Send(frame)
		}
		fk := clock.NewFake()
		worker.clock = fk
		done := make(chan error, 1)
		go fk.Drive(func() { done <- worker.RunLoop(dial) })
		select {
		case err := <-done:
			if !errors.Is(err, core.ErrUndecodable) {
				t.Errorf("%s: RunLoop returned %v, want core.ErrUndecodable", name, err)
			}
		case <-time.After(failsafe):
			t.Fatalf("%s: RunLoop never returned", name)
		}
		if dials != 1 {
			t.Errorf("%s: RunLoop dialed %d times, want 1", name, dials)
		}
	}
}
