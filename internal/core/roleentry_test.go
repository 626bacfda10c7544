package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"

	"vf2boost/internal/dataset"
	"vf2boost/internal/fault"
	"vf2boost/internal/mq"
)

// TestCheckpointStoreCannotOpen: a role whose checkpoint directory cannot
// be opened ends the session on every party, in a Session and with the
// role entries deployed over the TCP gateway alike. The party that hit it
// returns an error wrapping the cause; its peer learns the cause from
// MsgAbort, which carries its text. No party hangs, and no goroutine
// outlives the session.
func TestCheckpointStoreCannotOpen(t *testing.T) {
	_, parts := twoPartyData(t, 120, 3, 3, 1, true, 44)
	cfg := quickConfig(SchemeMock)
	cfg.Trees = 2
	views := testViews(t, cfg, parts...)
	const cause = "not a directory"
	for _, blocked := range []string{"passive0", "active"} {
		t.Run(blocked, func(t *testing.T) {
			// A file where the role's store directory belongs.
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, blocked), nil, 0o644); err != nil {
				t.Fatal(err)
			}
			baseline := runtime.NumGoroutine()

			sess, err := NewSession(parts, cfg, WithCheckpoints(dir))
			if err != nil {
				t.Fatal(err)
			}
			err = withinSeconds(t, 30, func() error { _, err := sess.Train(); return err })
			if err == nil || !strings.Contains(err.Error(), cause) || !strings.Contains(err.Error(), blocked) {
				t.Fatalf("Session.Train = %v, want the cause %q at %s", err, cause, blocked)
			}
			if blocked == "active" && !errors.Is(err, syscall.ENOTDIR) {
				t.Errorf("Session.Train = %v does not wrap ENOTDIR", err)
			}
			settleGoroutines(t, baseline)

			broker := mq.NewBroker()
			gw := mq.NewGateway(broker)
			addr, err := gw.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			aEnd := dialPair(t, addr, "", "a02b", "b2a0")
			bEnd := dialPair(t, addr, "", "b2a0", "a02b")
			aErr := make(chan error, 1)
			go func() {
				_, _, err := RunPassiveParty(0, views[0], cfg, aEnd, WithCheckpoints(dir))
				aErr <- err
			}()
			bErr := withinSeconds(t, 30, func() error {
				_, _, err := RunActiveParty(views[1], parts[1].Labels, cfg, []Transport{bEnd}, WithCheckpoints(dir))
				return err
			})
			errA := withinSeconds(t, 30, func() error { return <-aErr })
			for role, err := range map[string]error{"passive": errA, "active": bErr} {
				if err == nil || !strings.Contains(err.Error(), cause) {
					t.Errorf("%s role ended with %v, want the cause %q", role, err, cause)
				}
			}
			if failing := map[string]error{"passive0": errA, "active": bErr}[blocked]; !errors.Is(failing, syscall.ENOTDIR) {
				t.Errorf("the role whose store failed returned %v, which does not wrap ENOTDIR", failing)
			}
			aEnd.Close()
			bEnd.Close()
			gw.Close()
			broker.Close()
			settleGoroutines(t, baseline)
		})
	}
}

// TestRoleEntriesRefuseOptions: the role entries refuse, by name, every
// option they cannot apply — the transport options, whose transport the
// caller owns, and a key on a passive party — before they touch the link.
func TestRoleEntriesRefuseOptions(t *testing.T) {
	_, parts := twoPartyData(t, 50, 2, 2, 1, true, 45)
	cfg := quickConfig(SchemeMock)
	views := testViews(t, cfg, parts...)
	_, _, err := RunPassiveParty(0, views[0], cfg, nil, WithDecryptor(testDecryptor(t)), WithWAN(10, 0), WithTrace(nil))
	if err == nil || !strings.Contains(err.Error(), "WithWAN, WithDecryptor") {
		t.Errorf("RunPassiveParty = %v, want WithWAN and WithDecryptor refused", err)
	}
	_, _, err = RunActiveParty(views[1], parts[1].Labels, cfg, nil, WithChaos(fault.Config{}), WithDecryptor(testDecryptor(t)))
	if err == nil || !strings.Contains(err.Error(), "WithChaos") || strings.Contains(err.Error(), "WithDecryptor") {
		t.Errorf("RunActiveParty = %v, want WithChaos refused, WithDecryptor taken", err)
	}
}

// TestActiveRefusalReachesPassive: a Party B that refuses its labels
// before training tells every passive party why, so a deployed passive
// party ends with the cause instead of waiting for a setup that will not
// come.
func TestActiveRefusalReachesPassive(t *testing.T) {
	_, parts := twoPartyData(t, 60, 2, 2, 1, true, 46)
	cfg := quickConfig(SchemeMock)
	views := testViews(t, cfg, parts...)
	labels := append([]float64(nil), parts[1].Labels...)
	labels[3] = 2 // not a binary label
	broker := mq.NewBroker()
	defer broker.Close()
	aEnd, err := broker.Endpoint("a02b", "b2a0", nil)
	if err != nil {
		t.Fatal(err)
	}
	bEnd, err := broker.Endpoint("b2a0", "a02b", nil)
	if err != nil {
		t.Fatal(err)
	}
	aErr := make(chan error, 1)
	go func() {
		_, _, err := RunPassiveParty(0, views[0], cfg, aEnd)
		aErr <- err
	}()
	_, _, bErr := RunActiveParty(views[1], labels, cfg, []Transport{bEnd})
	errA := withinSeconds(t, 30, func() error { return <-aErr })
	for role, err := range map[string]error{"passive": errA, "active": bErr} {
		if err == nil || !strings.Contains(err.Error(), "binary label 2") {
			t.Errorf("%s role ended with %v, want the refused label named", role, err)
		}
	}
}

// TestPeerAbortReachesEveryPassive: when one of several passive parties
// aborts at setup, Party B passes the cause on to the others, which would
// otherwise wait for a setup that will not come.
func TestPeerAbortReachesEveryPassive(t *testing.T) {
	d, err := dataset.Generate(dataset.GenOptions{Rows: 60, Cols: 6, Density: 1, Dense: true, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := d.VerticalSplit([]int{2, 2, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig(SchemeMock)
	views := testViews(t, cfg, parts...)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "passive1"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	broker := mq.NewBroker()
	defer broker.Close()
	errs := make(chan error, 2)
	bEnds := make([]Transport, 2)
	for i := range bEnds {
		b2a, a2b := fmt.Sprintf("b2a%d", i), fmt.Sprintf("a%d2b", i)
		aEnd, err := broker.Endpoint(a2b, b2a, nil)
		if err != nil {
			t.Fatal(err)
		}
		if bEnds[i], err = broker.Endpoint(b2a, a2b, nil); err != nil {
			t.Fatal(err)
		}
		var opts []SessionOption
		if i == 1 {
			opts = append(opts, WithCheckpoints(dir))
		}
		go func() {
			_, _, err := RunPassiveParty(i, views[i], cfg, aEnd, opts...)
			errs <- err
		}()
	}
	_, _, bErr := RunActiveParty(views[2], parts[2].Labels, cfg, bEnds)
	for _, err := range []error{bErr, withinSeconds(t, 30, func() error { return <-errs }), withinSeconds(t, 30, func() error { return <-errs })} {
		if err == nil || !strings.Contains(err.Error(), "not a directory") {
			t.Errorf("a party ended with %v, want passive party 1's cause", err)
		}
	}
}
