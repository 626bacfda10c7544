package core

import (
	"bytes"
	"crypto/rand"
	"math"
	"testing"
	"vf2boost/internal/trace"

	"vf2boost/internal/dataset"
	"vf2boost/internal/gbdt"
	"vf2boost/internal/he"
	"vf2boost/internal/metrics"
	"vf2boost/internal/paillier"
)

// sharedKey caches one small Paillier key for all tests in the package.
var sharedKey *paillier.PrivateKey

func testDecryptor(t testing.TB) he.Decryptor {
	t.Helper()
	if sharedKey == nil {
		k, err := paillier.GenerateKey(rand.Reader, 256)
		if err != nil {
			t.Fatal(err)
		}
		sharedKey = k
	}
	return he.NewPaillierFromKey(sharedKey, 0)
}

// twoPartyData builds a joined dataset plus its vertical split.
func twoPartyData(t testing.TB, rows, colsA, colsB int, density float64, dense bool, seed int64) (joined *dataset.Dataset, parts []*dataset.Dataset) {
	t.Helper()
	d, err := dataset.Generate(dataset.GenOptions{
		Rows: rows, Cols: colsA + colsB, Density: density, Dense: dense, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err = d.VerticalSplit([]int{colsA, colsB}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return d, parts
}

// quickConfig keeps protocol tests fast.
func quickConfig(scheme string) Config {
	cfg := DefaultConfig()
	cfg.Trees = 3
	cfg.MaxDepth = 3
	cfg.MaxBins = 8
	cfg.Scheme = scheme
	cfg.KeyBits = 256
	cfg.BatchSize = 100
	return cfg
}

func trainFed(t testing.TB, parts []*dataset.Dataset, cfg Config, opts ...SessionOption) (*FederatedModel, *Session) {
	t.Helper()
	if cfg.Scheme == SchemePaillier {
		opts = append(opts, WithDecryptor(testDecryptor(t)))
	}
	s, err := NewSession(parts, cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Train()
	if err != nil {
		t.Fatal(err)
	}
	return m, s
}

func TestConfigValidation(t *testing.T) {
	_, parts := twoPartyData(t, 50, 2, 2, 1, true, 1)
	bad := quickConfig(SchemeMock)
	bad.Trees = 0
	if _, err := NewSession(parts, bad); err == nil {
		t.Error("Trees=0 accepted")
	}
	bad = quickConfig("nope")
	if _, err := NewSession(parts, bad); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := NewSession(parts[:1], quickConfig(SchemeMock)); err == nil {
		t.Error("single party accepted")
	}
	// Label placement: passive party with labels must be rejected.
	if _, err := NewSession([]*dataset.Dataset{parts[1], parts[1]}, quickConfig(SchemeMock)); err == nil {
		t.Error("labeled passive party accepted")
	}
	// Party B without labels must be rejected.
	if _, err := NewSession([]*dataset.Dataset{parts[0], parts[0]}, quickConfig(SchemeMock)); err == nil {
		t.Error("unlabeled party B accepted")
	}
}

func TestMockFederatedLearns(t *testing.T) {
	joined, parts := twoPartyData(t, 1200, 6, 6, 1, true, 2)
	cfg := quickConfig(SchemeMock)
	cfg.Trees = 12
	cfg.MaxDepth = 4
	m, _ := trainFed(t, parts, cfg)
	margins, err := m.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	auc, err := metrics.AUC(margins, joined.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.78 {
		t.Errorf("federated training AUC = %g, want >= 0.78", auc)
	}
}

// TestLossless is the paper's central claim: federated training achieves
// the same model as non-federated training on the co-located dataset.
// With the shared deterministic split order the trees are structurally
// identical up to fixed-point rounding, so the margins agree tightly.
func TestLosslessVsLocal(t *testing.T) {
	joined, parts := twoPartyData(t, 900, 5, 5, 1, true, 3)
	cfg := quickConfig(SchemeMock)
	cfg.Trees = 5
	fed, _ := trainFed(t, parts, cfg)

	lp := gbdt.DefaultParams()
	lp.NumTrees = cfg.Trees
	lp.MaxDepth = cfg.MaxDepth
	lp.MaxBins = cfg.MaxBins
	local, err := gbdt.Train(joined, lp)
	if err != nil {
		t.Fatal(err)
	}

	fedMargins, err := fed.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	localMargins := local.PredictAll(joined)
	maxDiff := 0.0
	for i := range fedMargins {
		if d := math.Abs(fedMargins[i] - localMargins[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-6 {
		t.Errorf("federated vs local margin divergence %g; trees are not equivalent", maxDiff)
	}
}

// TestSchemeEquivalence: the mock and Paillier schemes must produce
// bit-identical models (same encoding, exact modular arithmetic in both).
func TestSchemeEquivalence(t *testing.T) {
	_, parts := twoPartyData(t, 300, 4, 4, 1, true, 4)
	cfgM := quickConfig(SchemeMock)
	cfgP := quickConfig(SchemePaillier)
	mM, _ := trainFed(t, parts, cfgM)
	mP, _ := trainFed(t, parts, cfgP)
	marM, err := mM.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	marP, err := mP.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range marM {
		if marM[i] != marP[i] {
			t.Fatalf("mock and paillier models diverge at row %d: %g vs %g", i, marM[i], marP[i])
		}
	}
}

// TestAblationEquivalence: every combination of the four optimizations
// must produce exactly the same model — they change the schedule and the
// cipher layout, never the arithmetic.
func TestAblationEquivalence(t *testing.T) {
	_, parts := twoPartyData(t, 400, 8, 4, 0.5, false, 5)
	base := quickConfig(SchemeMock)
	base.BlasterEncryption = false
	base.ReorderedAccumulation = false
	base.OptimisticSplit = false
	base.HistogramPacking = false
	ref, _ := trainFed(t, parts, base)
	refMargins, err := ref.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}

	for mask := 1; mask < 16; mask++ {
		cfg := base
		cfg.BlasterEncryption = mask&1 != 0
		cfg.ReorderedAccumulation = mask&2 != 0
		cfg.OptimisticSplit = mask&4 != 0
		cfg.HistogramPacking = mask&8 != 0
		m, _ := trainFed(t, parts, cfg)
		margins, err := m.PredictAll(parts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range margins {
			if math.Abs(margins[i]-refMargins[i]) > 1e-9 {
				t.Fatalf("optimization mask %04b changed the model at row %d: %g vs %g",
					mask, i, margins[i], refMargins[i])
			}
		}
	}
}

// TestOptimisticDirtyNodes forces a feature-rich passive party so the
// optimistic protocol must roll back dirty nodes, and checks the result
// still matches the sequential protocol.
func TestOptimisticDirtyNodes(t *testing.T) {
	// Party A gets most features: high failure probability D_A/(D_A+D_B).
	_, parts := twoPartyData(t, 500, 14, 2, 1, true, 6)
	seq := quickConfig(SchemeMock)
	seq.OptimisticSplit = false
	opt := seq
	opt.OptimisticSplit = true

	mSeq, _ := trainFed(t, parts, seq)
	mOpt, sOpt := trainFed(t, parts, opt)

	if sOpt.Stats().DirtyNodes() == 0 {
		t.Error("expected dirty nodes with a feature-rich passive party")
	}
	marSeq, err := mSeq.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	marOpt, err := mOpt.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range marSeq {
		if math.Abs(marSeq[i]-marOpt[i]) > 1e-9 {
			t.Fatalf("optimistic protocol changed the model at row %d", i)
		}
	}
	// Splits landed on both parties.
	if mOpt.SplitsByParty[0] == 0 {
		t.Error("passive party won no splits despite owning most features")
	}
}

func TestPaillierEndToEndWithPacking(t *testing.T) {
	joined, parts := twoPartyData(t, 250, 4, 3, 1, true, 7)
	cfg := quickConfig(SchemePaillier)
	cfg.Trees = 2
	m, s := trainFed(t, parts, cfg)
	margins, err := m.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	ll, err := metrics.LogLoss(margins, joined.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if ll >= math.Ln2 {
		t.Errorf("paillier training did not reduce loss: %g", ll)
	}
	if s.Stats().TreesFinished() != int64(cfg.Trees) {
		t.Errorf("finished %d trees", s.Stats().TreesFinished())
	}
}

func TestMultiPartyTraining(t *testing.T) {
	d, err := dataset.Generate(dataset.GenOptions{Rows: 600, Cols: 12, Density: 1, Dense: true, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := d.VerticalSplit([]int{4, 4, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig(SchemeMock)
	cfg.Trees = 4
	m, _ := trainFed(t, parts, cfg)
	if m.NumParties() != 3 {
		t.Fatalf("model has %d parties", m.NumParties())
	}
	margins, err := m.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	auc, err := metrics.AUC(margins, d.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.75 {
		t.Errorf("3-party AUC = %g", auc)
	}

	// Multi-party must equal local training on the joined table too.
	lp := gbdt.DefaultParams()
	lp.NumTrees = cfg.Trees
	lp.MaxDepth = cfg.MaxDepth
	lp.MaxBins = cfg.MaxBins
	local, err := gbdt.Train(d, lp)
	if err != nil {
		t.Fatal(err)
	}
	localMargins := local.PredictAll(d)
	for i := range margins {
		if math.Abs(margins[i]-localMargins[i]) > 1e-6 {
			t.Fatalf("3-party model diverges from local at row %d", i)
		}
	}
}

func TestMultiPartyOptimistic(t *testing.T) {
	d, err := dataset.Generate(dataset.GenOptions{Rows: 400, Cols: 12, Density: 1, Dense: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := d.VerticalSplit([]int{5, 5, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	seq := quickConfig(SchemeMock)
	seq.OptimisticSplit = false
	opt := seq
	opt.OptimisticSplit = true
	mSeq, _ := trainFed(t, parts, seq)
	mOpt, _ := trainFed(t, parts, opt)
	a, err := mSeq.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mOpt.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatal("multi-party optimistic model diverges from sequential")
		}
	}
}

// TestWorkerCountInvariance: the federated model must not depend on the
// per-party worker count — encrypted accumulation is exact modular
// arithmetic, so even the shard-merge order cannot perturb it.
func TestWorkerCountInvariance(t *testing.T) {
	_, parts := twoPartyData(t, 600, 6, 6, 1, true, 15)
	cfg := quickConfig(SchemeMock)
	cfg.Trees = 3
	cfg.Workers = 1
	m1, _ := trainFed(t, parts, cfg)
	cfg.Workers = 4
	m4, _ := trainFed(t, parts, cfg)
	a, err := m1.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m4.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("worker count changed the federated model at row %d", i)
		}
	}
}

func TestSessionWithWANShaper(t *testing.T) {
	_, parts := twoPartyData(t, 200, 3, 3, 1, true, 10)
	cfg := quickConfig(SchemeMock)
	cfg.Trees = 2
	m, s := trainFed(t, parts, cfg, WithWAN(10000, 0))
	if m == nil {
		t.Fatal("nil model")
	}
	if s.Shaper().Bytes() == 0 {
		t.Error("WAN shaper saw no traffic")
	}
	if s.Broker().BytesSent() == 0 {
		t.Error("broker accounted no bytes")
	}
}

func TestModelSaveLoad(t *testing.T) {
	_, parts := twoPartyData(t, 200, 3, 3, 1, true, 11)
	cfg := quickConfig(SchemeMock)
	cfg.Trees = 2
	m, _ := trainFed(t, parts, cfg)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("loaded model predicts differently")
		}
	}
	if _, err := Load(bytes.NewBufferString("junk")); err == nil {
		t.Error("garbage model accepted")
	}
	if _, err := Load(bytes.NewBufferString(`{"version":1}`)); err == nil {
		t.Error("empty model accepted")
	}
}

func TestPredictValidation(t *testing.T) {
	_, parts := twoPartyData(t, 100, 3, 3, 1, true, 12)
	cfg := quickConfig(SchemeMock)
	cfg.Trees = 1
	m, _ := trainFed(t, parts, cfg)
	if _, err := m.PredictAll(parts[:1]); err == nil {
		t.Error("wrong party count accepted")
	}
	if _, err := m.PredictAll(nil); err == nil {
		t.Error("nil parts accepted")
	}
}

func TestRowMismatchRejected(t *testing.T) {
	_, parts := twoPartyData(t, 100, 3, 3, 1, true, 13)
	short := parts[0].SubRows([]int{0, 1, 2})
	if _, err := NewSession([]*dataset.Dataset{short, parts[1]}, quickConfig(SchemeMock)); err == nil {
		t.Error("misaligned instance counts accepted")
	}
}

// TestSingleExponentConfig: with ExpSpread=1 the encoding is
// deterministic (no obfuscation) and the re-ordered machinery
// degenerates gracefully; the model must match the obfuscated run.
func TestSingleExponentConfig(t *testing.T) {
	_, parts := twoPartyData(t, 300, 4, 4, 1, true, 16)
	plain := quickConfig(SchemeMock)
	plain.Trees = 2
	plain.ExpSpread = 1
	obf := plain
	obf.ExpSpread = 4

	mP, _ := trainFed(t, parts, plain)
	mO, _ := trainFed(t, parts, obf)
	a, err := mP.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := mO.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i]-bm[i]) > 1e-9 {
			t.Fatalf("exponent spread changed the model at row %d", i)
		}
	}
}

func TestStatsAreRecorded(t *testing.T) {
	_, parts := twoPartyData(t, 300, 4, 4, 1, true, 14)
	cfg := quickConfig(SchemePaillier)
	cfg.Trees = 2
	rec := trace.NewRecorder()
	_, s := trainFed(t, parts, cfg, WithTrace(rec))
	st := s.Stats()
	// Finalizing and packing is its own phase, with its own Gantt lane,
	// and the session's cipher counters include the passive party's work.
	if st.PackTime() <= 0 {
		t.Error("no pack time recorded")
	}
	lanes := map[trace.Lane]int{}
	for _, sp := range rec.Spans() {
		lanes[sp.Lane]++
	}
	if lanes["A0:Pack"] == 0 || lanes["A0:BuildHist"] == 0 || lanes["B:Decrypt+FindSplitA"] == 0 {
		t.Errorf("trace lanes %v lack A0:Pack, A0:BuildHist or B:Decrypt+FindSplitA", lanes)
	}
	if c := s.Crypto(); c.HAdds() < 300*4*int64(cfg.Trees) || c.SMuls() == 0 ||
		c.Encryptions() != 300*int64(cfg.Trees) || c.Decryptions() == 0 {
		t.Errorf("session crypto counters: %d HAdds, %d SMuls, %d encryptions, %d decryptions",
			c.HAdds(), c.SMuls(), c.Encryptions(), c.Decryptions())
	}
	if st.EncryptTime() <= 0 {
		t.Error("no encryption time recorded")
	}
	if st.DecryptTime() <= 0 {
		t.Error("no decryption time recorded")
	}
	if st.BuildHistTime() <= 0 {
		t.Error("no histogram build time recorded")
	}
	if st.SplitsByA()+st.SplitsByB() == 0 {
		t.Error("no splits recorded")
	}
	if got := len(s.PerTreeTimes()); got != cfg.Trees {
		t.Errorf("recorded %d per-tree times, want %d", got, cfg.Trees)
	}
	r := st.RatioSplitsB()
	if r < 0 || r > 1 {
		t.Errorf("RatioSplitsB = %g", r)
	}
}
