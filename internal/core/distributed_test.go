package core

import (
	"math"
	"sync"
	"testing"

	"vf2boost/internal/mq"
)

// dialPair dials one party's end of a link through the TCP gateway, the
// way cmd/vf2boost's party subcommand does.
func dialPair(t *testing.T, addr, secret, sendTopic, recvTopic string) *mq.Endpoint {
	t.Helper()
	end, err := mq.DialEndpoint(addr, sendTopic, recvTopic, []byte(secret))
	if err != nil {
		t.Fatal(err)
	}
	return end
}

// TestDistributedTrainingOverTCP runs the full protocol with each party
// attached to the broker through the TCP gateway — the paper's deployment
// shape — and checks the result matches the in-process session exactly.
func TestDistributedTrainingOverTCP(t *testing.T) {
	joined, parts := twoPartyData(t, 300, 5, 4, 1, true, 21)
	_ = joined

	secret := "gw-secret"
	broker := mq.NewBroker(mq.WithAuth([]byte(secret)))
	defer broker.Close()
	gw := mq.NewGateway(broker)
	addr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	cfg := quickConfig(SchemeMock)
	cfg.Trees = 3
	views := testViews(t, cfg, parts...)

	var wg sync.WaitGroup
	var aModel *PartyModel
	var aErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr := dialPair(t, addr, secret, "a02b", "b2a0")
		aModel, _, aErr = RunPassiveParty(0, views[0], cfg, tr)
	}()

	bTr := dialPair(t, addr, secret, "b2a0", "a02b")
	bModel, stats, err := RunActiveParty(views[1], parts[1].Labels, cfg, []Transport{bTr})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if aErr != nil {
		t.Fatal(aErr)
	}
	if stats.TreesFinished() != int64(cfg.Trees) {
		t.Errorf("finished %d trees", stats.TreesFinished())
	}

	// Assemble and compare against the in-process session.
	for len(aModel.Trees) < cfg.Trees {
		aModel.Trees = append(aModel.Trees, NewFedTree(rootID))
	}
	distributed := &FederatedModel{
		Parties:      []*PartyModel{aModel, bModel},
		LearningRate: cfg.LearningRate,
	}
	inproc, _ := trainFed(t, parts, cfg)

	dm, err := distributed.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	im, err := inproc.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dm {
		if math.Abs(dm[i]-im[i]) > 1e-9 {
			t.Fatalf("TCP-distributed model diverges from in-process at row %d", i)
		}
	}
}

// TestDistributedPaillierOverTCP exercises the real cryptosystem across
// the gateway (small key, few trees).
func TestDistributedPaillierOverTCP(t *testing.T) {
	_, parts := twoPartyData(t, 150, 3, 3, 1, true, 22)

	broker := mq.NewBroker()
	defer broker.Close()
	gw := mq.NewGateway(broker)
	addr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	cfg := quickConfig(SchemePaillier)
	cfg.Trees = 1
	views := testViews(t, cfg, parts...)

	var wg sync.WaitGroup
	var aErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr := dialPair(t, addr, "", "a02b", "b2a0")
		_, _, aErr = RunPassiveParty(0, views[0], cfg, tr)
	}()
	bTr := dialPair(t, addr, "", "b2a0", "a02b")
	_, stats, err := RunActiveParty(views[1], parts[1].Labels, cfg, []Transport{bTr})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if aErr != nil {
		t.Fatal(aErr)
	}
	if stats.DecryptTime() <= 0 {
		t.Error("no decryption happened over TCP")
	}
}

// TestRunPartyValidation covers the exported runner validation paths.
func TestRunPartyValidation(t *testing.T) {
	_, parts := twoPartyData(t, 50, 2, 2, 1, true, 23)
	bad := quickConfig(SchemeMock)
	bad.Trees = 0
	views := testViews(t, quickConfig(SchemeMock), parts...)
	if _, _, err := RunPassiveParty(0, views[0], bad, nil); err == nil {
		t.Error("invalid config accepted by RunPassiveParty")
	}
	if _, _, err := RunActiveParty(views[1], parts[1].Labels, bad, nil); err == nil {
		t.Error("invalid config accepted by RunActiveParty")
	}
	// Party B without labels.
	if _, _, err := RunActiveParty(views[0], parts[0].Labels, quickConfig(SchemeMock), nil); err == nil {
		t.Error("unlabeled dataset accepted by RunActiveParty")
	}
}
