package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"vf2boost/internal/core"
	"vf2boost/internal/dataset"
	"vf2boost/internal/serve"
)

// chanEnd is one end of an in-memory link.
type chanEnd struct {
	send chan<- []byte
	recv <-chan []byte
}

func (c chanEnd) Send(b []byte) error {
	c.send <- append([]byte(nil), b...)
	return nil
}

func (c chanEnd) Receive() ([]byte, error) {
	b, ok := <-c.recv
	if !ok {
		return nil, io.EOF
	}
	return b, nil
}

// TestPredictSessionScoresInBoundedRounds: Party B's side of `predict`
// scores a shard larger than predictRoundRows in ceil(n/predictRoundRows)
// rounds of one session, and its margins are the glued model's PredictAll.
func TestPredictSessionScoresInBoundedRounds(t *testing.T) {
	split := []int{5, 5}
	gen := func(rows int, seed int64) []*dataset.Dataset {
		d, err := dataset.Generate(dataset.GenOptions{Rows: rows, Cols: 10, Density: 0.6, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		parts, err := d.VerticalSplit(split, 1)
		if err != nil {
			t.Fatal(err)
		}
		return parts
	}
	cfg := core.DefaultConfig()
	cfg.Scheme = core.SchemeMock
	cfg.Trees = 3
	cfg.MaxDepth = 3
	sess, err := core.NewSession(gen(400, 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sess.Train()
	if err != nil {
		t.Fatal(err)
	}
	if m.SplitsByParty[0] == 0 {
		t.Fatal("the model has no party-0 splits; the worker's bitmaps would route nothing")
	}

	n := predictRoundRows + 1000
	parts := gen(n, 6)
	want, err := m.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}

	aReg := serve.NewRegistry()
	if err := aReg.Publish(serve.Model{Version: 1, Fragment: m.Parties[0]}); err != nil {
		t.Fatal(err)
	}
	bReg := serve.NewRegistry()
	if err := bReg.Publish(serve.Model{Version: 1, Fragment: m.Parties[1], LearningRate: m.LearningRate}); err != nil {
		t.Fatal(err)
	}
	a2b, b2a := make(chan []byte, 4), make(chan []byte, 4)
	w := serve.NewPassiveWorker(0, parts[0], aReg)
	done := make(chan error, 1)
	go func() { done <- w.Run(chanEnd{send: a2b, recv: b2a}) }()

	got, err := predictSession(parts[1], bReg, []core.Transport{chanEnd{send: b2a, recv: a2b}})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if rounds, wantRounds := w.Rounds(), int64((n+predictRoundRows-1)/predictRoundRows); rounds != wantRounds {
		t.Errorf("worker answered %d rounds for %d rows, want %d", rounds, n, wantRounds)
	}
	if len(got) != n {
		t.Fatalf("%d margins for %d rows", len(got), n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: margin %v, want PredictAll's %v", i, got[i], want[i])
		}
	}
}

// startGateway runs `gateway` on a free local port until the test ends
// and returns its address.
func startGateway(t *testing.T, bin string) string {
	t.Helper()
	gw := exec.Command(bin, "gateway", "-addr", "127.0.0.1:0")
	stdout, err := gw.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		gw.Process.Signal(os.Interrupt)
		gw.Wait()
	})
	line, err := bufio.NewReader(stdout).ReadString('\n')
	f := strings.Fields(line)
	if err != nil || len(f) < 4 || f[1] != "listening" {
		t.Fatalf("gateway did not start: %q, %v", line, err)
	}
	return f[3]
}

// runPair runs a passive-side and a Party B-side command against one
// gateway at once and fails the test unless both succeed.
func runPair(t *testing.T, bin string, a, b []string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var aOut bytes.Buffer
	ac := exec.CommandContext(ctx, bin, a...)
	ac.Stdout, ac.Stderr = &aOut, &aOut
	if err := ac.Start(); err != nil {
		t.Fatal(err)
	}
	bOut, bErr := exec.CommandContext(ctx, bin, b...).CombinedOutput()
	aErr := ac.Wait()
	if aErr != nil || bErr != nil {
		t.Fatalf("%v: %v\n%s\n%v: %v\n%s", a, aErr, aOut.Bytes(), b, bErr, bOut)
	}
}

// TestFragmentCarriesLearningRate: `party -role b -out` records the
// learning rate in Party B's fragment; `predict` scores with it, so its
// margins are the glued model's PredictAll (at an η that is not the
// -eta default); and `predict` refuses a Party B fragment that records
// none, naming the fix.
func TestFragmentCarriesLearningRate(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the CLI over a gateway")
	}
	bin := buildCLI(t)
	d, err := dataset.Generate(dataset.GenOptions{Rows: 300, Cols: 10, Density: 0.6, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := d.VerticalSplit([]int{5, 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	file := func(name string) string { return filepath.Join(dir, name) }
	for i, name := range []string{"a.libsvm", "b.libsvm"} {
		if err := dataset.SaveLibSVMFile(file(name), parts[i]); err != nil {
			t.Fatal(err)
		}
	}

	const eta = 0.3
	addr := startGateway(t, bin)
	train := []string{"-gateway", addr, "-trees", "3", "-depth", "3", "-scheme", "mock", "-eta", fmt.Sprint(eta)}
	runPair(t, bin,
		append([]string{"party", "-role", "a", "-data", file("a.libsvm"), "-out", file("fragA.json")}, train...),
		append([]string{"party", "-role", "b", "-data", file("b.libsvm"), "-out", file("fragB.json")}, train...))
	fragA, fragB := loadModelFile(file("fragA.json")), loadModelFile(file("fragB.json"))
	if fragB.LearningRate != eta {
		t.Fatalf("Party B's fragment records learning_rate %v, want %v", fragB.LearningRate, eta)
	}

	link := []string{"-gateway", addr}
	runPair(t, bin,
		append([]string{"predict", "-role", "a", "-data", file("a.libsvm"), "-model", file("fragA.json")}, link...),
		append([]string{"predict", "-role", "b", "-data", file("b.libsvm"), "-model", file("fragB.json"), "-out", file("preds.txt")}, link...))
	a, b := fragA.Parties[0], fragB.Parties[0]
	splits := 0
	for _, tr := range a.Trees {
		for _, n := range tr.Nodes {
			if n.Owner == 0 {
				splits++
			}
		}
	}
	if splits == 0 {
		t.Fatal("the passive fragment has no splits; predict would route nothing through party 0")
	}
	for len(a.Trees) < len(b.Trees) {
		a.Trees = append(a.Trees, core.NewFedTree(b.Trees[len(a.Trees)].Root))
	}
	glued := &core.FederatedModel{Parties: []*core.PartyModel{a, b}, LearningRate: eta}
	loaded := []*dataset.Dataset{loadData(file("a.libsvm")), loadData(file("b.libsvm"))}
	want, err := glued.PredictAll(loaded)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(file("preds.txt"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(string(raw))
	if len(lines) != len(want) {
		t.Fatalf("%d margins for %d rows", len(lines), len(want))
	}
	for i, l := range lines {
		if got, err := strconv.ParseFloat(l, 64); err != nil || got != want[i] {
			t.Fatalf("row %d: predict wrote %s, PredictAll gives %v", i, l, want[i])
		}
	}

	fragB.LearningRate = 0
	saveModel(file("noeta.json"), "fragment", fragB)
	out, err := runRefused(bin, "predict", "-role", "b", "-data", file("b.libsvm"),
		"-model", file("noeta.json"), "-gateway", addr)
	if err == nil || !bytes.Contains(out, []byte("re-run `party -role b -out`")) {
		t.Fatalf("a Party B fragment without a learning rate was not refused: %v\n%s", err, out)
	}
}

// TestRegistryScoresEachVersionWithItsOwnEta: Party B's registry takes
// every version's learning rate and base score from its own fragment file,
// so fragments trained at different η serve side by side; a passive
// registry carries neither (it only routes).
func TestRegistryScoresEachVersionWithItsOwnEta(t *testing.T) {
	d, err := dataset.Generate(dataset.GenOptions{Rows: 200, Cols: 6, Density: 0.6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := d.VerticalSplit([]int{3, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var paths []string
	for i, eta := range []float64{0.1, 0.3} {
		cfg := core.DefaultConfig()
		cfg.Scheme = core.SchemeMock
		cfg.Trees = 2
		cfg.MaxDepth = 2
		cfg.LearningRate = eta
		sess, err := core.NewSession(parts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sess.Train()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("v%d.json", i+1))
		saveModel(path, "fragment", &core.FederatedModel{Parties: m.Parties[1:], LearningRate: eta, BaseScore: eta / 10})
		paths = append(paths, path)
	}
	reg := buildServeRegistry(paths, true)
	for v, eta := range map[uint64]float64{1: 0.1, 2: 0.3} {
		m, ok := reg.Get(v)
		if !ok || m.LearningRate != eta || m.BaseScore != eta/10 {
			t.Errorf("version %d scores with η %v, base %v; want %v, %v", v, m.LearningRate, m.BaseScore, eta, eta/10)
		}
	}
	passive, _ := buildServeRegistry(paths, false).Get(2)
	if passive.LearningRate != 0 || passive.BaseScore != 0 {
		t.Errorf("a passive registry scores with η %v, base %v", passive.LearningRate, passive.BaseScore)
	}
}
