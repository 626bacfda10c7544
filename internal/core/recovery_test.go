package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vf2boost/internal/checkpoint"
	"vf2boost/internal/fault"
	"vf2boost/internal/fault/fsfault"
	"vf2boost/internal/mq"
)

// recoveryConfig pins every source of run-to-run variation (a single
// encoding exponent, fixed seed), so a recovered run can be compared to a
// fault-free baseline byte for byte.
func recoveryConfig(trees int) Config {
	cfg := quickConfig(SchemeMock)
	cfg.Trees = trees
	cfg.ExpSpread = 1
	return cfg
}

func modelJSON(t *testing.T, m *FederatedModel) []byte {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTrainingIsDeterministic guards the premise of every recovery test:
// two identical fault-free runs produce byte-identical models.
func TestTrainingIsDeterministic(t *testing.T) {
	_, parts := twoPartyData(t, 200, 4, 3, 1, true, 31)
	cfg := recoveryConfig(3)
	m1, _ := trainFed(t, parts, cfg)
	m2, _ := trainFed(t, parts, cfg)
	if !bytes.Equal(modelJSON(t, m1), modelJSON(t, m2)) {
		t.Fatal("two identical runs produced different models; recovery tests cannot be byte-exact")
	}
}

// TestChaosTrainingMatchesBaseline is the subsystem's core acceptance: a
// session whose every link drops, delays, duplicates, and reorders frames
// — and severs the passive connection once, forcing a redial — still
// produces the exact model of a fault-free run.
func TestChaosTrainingMatchesBaseline(t *testing.T) {
	_, parts := twoPartyData(t, 200, 4, 3, 1, true, 32)
	cfg := recoveryConfig(4)

	baseline, _ := trainFed(t, parts, cfg)

	chaos := fault.Config{
		Seed:            7,
		Drop:            0.08,
		Dup:             0.05,
		Reorder:         0.05,
		Delay:           0.1,
		DelayFor:        time.Millisecond,
		DisconnectAfter: 30,
	}
	res := ResilientConfig{
		RetryInterval: 10 * time.Millisecond,
		RetryBackoff:  1.5,
		RetryMax:      100 * time.Millisecond,
		Heartbeat:     20 * time.Millisecond,
		PeerTimeout:   10 * time.Second,
		RedialWait:    time.Millisecond,
		Seed:          7,
	}
	chaotic, s := trainFed(t, parts, cfg, WithChaos(chaos), WithResilience(res))

	if !bytes.Equal(modelJSON(t, baseline), modelJSON(t, chaotic)) {
		t.Fatal("model trained under chaos differs from the fault-free baseline")
	}
	var redials, retransmits int64
	for _, st := range s.LinkStats() {
		redials += st.Redials
		retransmits += st.Retransmits
	}
	if retransmits == 0 {
		t.Error("chaos run needed no retransmits; the fault injection is not biting")
	}
	if redials == 0 {
		t.Error("the forced disconnect never triggered a redial")
	}
}

// TestSessionCheckpointResume: train 2 of 5 trees with checkpoints, then
// resume in a fresh session and finish — the result must be byte-identical
// to an uninterrupted 5-tree run.
func TestSessionCheckpointResume(t *testing.T) {
	_, parts := twoPartyData(t, 200, 4, 3, 1, true, 33)

	baseline, _ := trainFed(t, parts, recoveryConfig(5))

	dir := t.TempDir()
	trainFed(t, parts, recoveryConfig(2), WithCheckpoints(dir))

	// The partial run must have left per-party snapshots behind.
	for _, sub := range []string{"active", "passive0"} {
		st, err := checkpoint.Open(filepath.Join(dir, sub))
		if err != nil {
			t.Fatal(err)
		}
		if seqs := st.Seqs(); len(seqs) == 0 || seqs[len(seqs)-1] != 2 {
			t.Fatalf("%s store has snapshots %v, want newest 2", sub, st.Seqs())
		}
	}

	resumed, _ := trainFed(t, parts, recoveryConfig(5), WithCheckpoints(dir), WithResume())
	if !bytes.Equal(modelJSON(t, baseline), modelJSON(t, resumed)) {
		t.Fatal("resumed model differs from the uninterrupted baseline")
	}
}

// failTempFS fails every CreateTemp in the directory named dir, so one
// party's checkpoint store cannot save while the others' can.
type failTempFS struct {
	fsfault.FS
	dir string
}

func (f failTempFS) CreateTemp(dir, pattern string) (fsfault.File, error) {
	if filepath.Base(dir) == f.dir {
		return nil, fsfault.ErrInjectedIO
	}
	return f.FS.CreateTemp(dir, pattern)
}

// TestPassiveCheckpointFailureAborts: a passive party whose checkpoint
// save fails tells B, so the session ends with that failure instead of B
// waiting for the next tree's root histogram forever.
func TestPassiveCheckpointFailureAborts(t *testing.T) {
	_, parts := twoPartyData(t, 200, 4, 3, 1, true, 34)
	s, err := NewSession(parts, recoveryConfig(3), WithCheckpoints(t.TempDir()),
		WithCheckpointFS(failTempFS{FS: fsfault.OS, dir: "passive0"}))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Train()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "party 0 checkpoint") {
			t.Fatalf("Train returned %v, want party 0's checkpoint failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("session still training 10 s after party 0's checkpoint failed")
	}
}

// TestCheckpointResumeAcrossWorkerCounts: Workers is left out of the
// checkpoint fingerprint, so a run checkpointed at one worker count may
// resume at another, and must still end with the uninterrupted model. The
// session is B-heavy and large enough that B's own histograms cover
// thousands of rows per node.
func TestCheckpointResumeAcrossWorkerCounts(t *testing.T) {
	_, parts := twoPartyData(t, 2500, 2, 8, 0.6, false, 77)
	cfg := recoveryConfig(3)
	cfg.Workers = 1
	baseline, _ := trainFed(t, parts, cfg)

	dir := t.TempDir()
	short := cfg
	short.Trees = 1
	trainFed(t, parts, short, WithCheckpoints(dir))
	resumed := cfg
	resumed.Workers = 2
	m, _ := trainFed(t, parts, resumed, WithCheckpoints(dir), WithResume())
	if !bytes.Equal(modelJSON(t, baseline), modelJSON(t, m)) {
		t.Fatal("a resume at Workers 2 diverged from the uninterrupted Workers 1 run")
	}
}

// TestResumeWithExponentObfuscation: with ExpSpread > 1 Party B draws
// random exponents while encrypting, and a resumed run must draw the
// same per-tree stream an uninterrupted run would (the codec reseeds
// per tree, so the stream is position-independent). Workers is pinned
// to 1 because the within-tree draw order is scheduling-dependent.
func TestResumeWithExponentObfuscation(t *testing.T) {
	_, parts := twoPartyData(t, 200, 4, 3, 1, true, 35)
	cfg := quickConfig(SchemeMock)
	cfg.Trees = 5
	cfg.Workers = 1

	baseline, _ := trainFed(t, parts, cfg)

	dir := t.TempDir()
	short := cfg
	short.Trees = 2
	trainFed(t, parts, short, WithCheckpoints(dir))
	resumed, _ := trainFed(t, parts, cfg, WithCheckpoints(dir), WithResume())
	if !bytes.Equal(modelJSON(t, baseline), modelJSON(t, resumed)) {
		t.Fatal("obfuscated resume diverged from the uninterrupted baseline")
	}
}

// TestResumeRejectsChangedConfig: a checkpoint written under one
// configuration must refuse to seed a run under another.
func TestResumeRejectsChangedConfig(t *testing.T) {
	_, parts := twoPartyData(t, 100, 3, 3, 1, true, 34)
	dir := t.TempDir()
	trainFed(t, parts, recoveryConfig(2), WithCheckpoints(dir))

	changed := recoveryConfig(4)
	changed.LearningRate = 0.9
	s, err := NewSession(parts, changed, WithCheckpoints(dir), WithResume())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Train(); err == nil {
		t.Fatal("resume under a changed configuration succeeded")
	}
}

// severable is a transport that can be cut from the outside, standing in
// for a killed process: every call fails once tripped.
type severable struct {
	inner Transport
	down  atomic.Bool
}

var errSevered = errors.New("test: transport severed")

func (s *severable) Send(p []byte) error {
	if s.down.Load() {
		return errSevered
	}
	return s.inner.Send(p)
}

func (s *severable) Receive() ([]byte, error) {
	if s.down.Load() {
		return nil, errSevered
	}
	p, err := s.inner.Receive()
	if s.down.Load() {
		return nil, errSevered
	}
	return p, err
}

// TestDistributedKillRestartResume is the full fault story over the TCP
// gateway: the passive party is killed mid-run after at least one
// completed tree, Party B detects the dead peer, and a restart of both
// parties (fresh broker, checkpoint resume) finishes training with a
// model byte-identical to a run that was never interrupted.
func TestDistributedKillRestartResume(t *testing.T) {
	_, parts := twoPartyData(t, 200, 4, 3, 1, true, 35)
	cfg := recoveryConfig(6)
	views := testViews(t, cfg, parts...)

	baseline, _ := trainFed(t, parts, cfg)

	dir := t.TempDir()
	aStore, err := checkpoint.Open(filepath.Join(dir, "passive0"))
	if err != nil {
		t.Fatal(err)
	}
	bStore, err := checkpoint.Open(filepath.Join(dir, "active"))
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: both parties over the gateway, resilient-wrapped so the
	// kill is detected. B's link is slowed a little per frame so the kill
	// lands mid-run rather than after training already finished.
	secret := "gw-secret"
	broker := mq.NewBroker(mq.WithAuth([]byte(secret)))
	gw := mq.NewGateway(broker)
	addr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	res := ResilientConfig{
		RetryInterval: 10 * time.Millisecond,
		Heartbeat:     20 * time.Millisecond,
		PeerTimeout:   1500 * time.Millisecond,
		Seed:          9,
	}

	cut := &severable{inner: dialPair(t, addr, secret, "a02b", "b2a0")}
	aRes, err := NewResilientTransport(cut, nil, res)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var aErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, aErr = RunPassiveParty(0, views[0], cfg, aRes, RunWithCheckpoints(aStore))
	}()

	// Trip the cut as soon as the passive party has one snapshot on disk.
	go func() {
		for i := 0; i < 10000; i++ {
			if len(aStore.Seqs()) > 0 {
				cut.down.Store(true)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	slow := fault.Wrap(dialPair(t, addr, secret, "b2a0", "a02b"),
		fault.Config{Seed: 9, Delay: 1, DelayFor: 2 * time.Millisecond})
	bRes, err := NewResilientTransport(slow, nil, res)
	if err != nil {
		t.Fatal(err)
	}
	_, _, bErr := RunActiveParty(views[1], parts[1].Labels, cfg, []Transport{bRes}, RunWithCheckpoints(bStore))
	wg.Wait()
	aRes.Close()
	bRes.Close()
	gw.Close()
	broker.Close()

	if bErr == nil {
		t.Fatal("Party B finished training although its peer was killed mid-run")
	}
	if aErr == nil {
		t.Fatal("the killed passive party reported success")
	}
	if len(aStore.Seqs()) == 0 || len(bStore.Seqs()) == 0 {
		t.Fatalf("no snapshots to resume from (passive %v, active %v)", aStore.Seqs(), bStore.Seqs())
	}
	if newest := bStore.Seqs(); newest[len(newest)-1] >= cfg.Trees {
		t.Fatalf("phase 1 completed all %d trees; the kill landed too late", cfg.Trees)
	}

	// Phase 2: both parties restart against a fresh broker and resume.
	broker2 := mq.NewBroker(mq.WithAuth([]byte(secret)))
	defer broker2.Close()
	gw2 := mq.NewGateway(broker2)
	addr2, err := gw2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gw2.Close()

	var aModel *PartyModel
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr := dialPair(t, addr2, secret, "a02b", "b2a0")
		aModel, aErr = RunPassiveParty(0, views[0], cfg, tr,
			RunWithCheckpoints(aStore), RunWithResume())
	}()
	bTr := dialPair(t, addr2, secret, "b2a0", "a02b")
	bModel, _, err := RunActiveParty(views[1], parts[1].Labels, cfg, []Transport{bTr},
		RunWithCheckpoints(bStore), RunWithResume())
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if aErr != nil {
		t.Fatal(aErr)
	}

	// The restarted run's fragments must match the uninterrupted model
	// exactly.
	for len(aModel.Trees) < cfg.Trees {
		aModel.Trees = append(aModel.Trees, NewFedTree(rootID))
	}
	for who, pair := range map[string][2]any{
		"passive": {aModel.Trees, baseline.Parties[0].Trees},
		"active":  {bModel.Trees, baseline.Parties[1].Trees},
	} {
		got, err := json.Marshal(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s fragment after kill/restart differs from the uninterrupted run", who)
		}
	}
}

// TestCheckpointFilesSurviveProcessBoundaries re-opens a store the way a
// restarted process would and checks the newest snapshot round-trips.
func TestCheckpointFilesSurviveProcessBoundaries(t *testing.T) {
	_, parts := twoPartyData(t, 100, 3, 3, 1, true, 36)
	dir := t.TempDir()
	trainFed(t, parts, recoveryConfig(2), WithCheckpoints(dir))

	st, err := checkpoint.Open(filepath.Join(dir, "active"))
	if err != nil {
		t.Fatal(err)
	}
	var ts TrainState
	seq, err := st.LoadLatest(&ts)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 || ts.Role != RoleActive || ts.Trees != 2 || len(ts.Fragment.Trees) != 2 {
		t.Fatalf("restored snapshot: seq=%d role=%q trees=%d", seq, ts.Role, ts.Trees)
	}
	if len(ts.Margins) != parts[0].Rows() {
		t.Fatalf("restored %d margins, want %d", len(ts.Margins), parts[0].Rows())
	}
	// The on-disk layout is one self-describing file per round.
	ents, err := os.ReadDir(filepath.Join(dir, "active"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("active store holds %d files, want 2", len(ents))
	}
}
