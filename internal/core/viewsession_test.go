package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vf2boost/internal/dataset"
	"vf2boost/internal/gbdt"
	"vf2boost/internal/ooc"
)

func saveModel(t *testing.T, m *FederatedModel) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := m.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// A view-backed session over the same binned matrices the dataset
// session builds internally must produce the identical model.
func TestViewSessionMatchesDatasetSession(t *testing.T) {
	_, parts := twoPartyData(t, 400, 5, 5, 0.5, false, 9)
	cfg := quickConfig(SchemeMock)

	ref, _ := trainFed(t, parts, cfg)

	views := make([]gbdt.BinView, len(parts))
	for i, p := range parts {
		mapper, err := gbdt.NewBinMapper(p, cfg.MaxBins)
		if err != nil {
			t.Fatal(err)
		}
		views[i] = gbdt.NewBinnedMatrix(p, mapper)
	}
	s, err := NewViewSession(views, parts[len(parts)-1].Labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Train()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveModel(t, ref), saveModel(t, m)) {
		t.Fatal("view session model differs from dataset session model")
	}
}

// Federated out-of-core parity: every party trains against a disk-backed
// shard store under a tight budget, and the federated model must still be
// byte-identical to the all-in-memory run — for the binary default and
// for a multi-output objective alike.
func TestViewSessionOOCParity(t *testing.T) {
	for _, tc := range []struct {
		name  string
		parts func(t *testing.T) []*dataset.Dataset
	}{
		{"binary", func(t *testing.T) []*dataset.Dataset {
			_, parts := twoPartyData(t, 500, 6, 4, 0.6, false, 13)
			return parts
		}},
		{"multiclass:3", func(t *testing.T) []*dataset.Dataset {
			_, parts := multiclassParts(t, 500, 10, 3, 13)
			return parts
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parts := tc.parts(t)
			cfg := quickConfig(SchemeMock)
			if tc.name != "binary" {
				cfg.Objective = mustObjective(t, tc.name)
			}

			ref, _ := trainFed(t, parts, cfg)

			views := make([]gbdt.BinView, len(parts))
			var labels []float64
			for i, p := range parts {
				dir := t.TempDir()
				if err := ooc.Build(dir, ooc.NewDatasetSource(p), ooc.BuildOptions{MaxBins: cfg.MaxBins, ChunkRows: 64}); err != nil {
					t.Fatal(err)
				}
				st, err := ooc.Open(dir, ooc.Options{MemBudget: 8 << 10, Prefetch: true})
				if err != nil {
					t.Fatal(err)
				}
				views[i] = st
				if i == len(parts)-1 {
					if labels, err = st.Labels(); err != nil {
						t.Fatal(err)
					}
				}
			}
			s, err := NewViewSession(views, labels, cfg)
			if err != nil {
				t.Fatal(err)
			}
			m, err := s.Train()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saveModel(t, ref), saveModel(t, m)) {
				t.Fatal("out-of-core federated model differs from in-memory model")
			}
		})
	}
}

// A passive party whose shard store rots mid-training (no rebuild
// source attached) must abort the session cleanly: Train returns an
// error carrying the typed shard detail — never a panic, never a hang.
func TestViewSessionFaultyStoreAborts(t *testing.T) {
	_, parts := twoPartyData(t, 300, 5, 5, 0.5, false, 21)
	cfg := quickConfig(SchemeMock)

	views := make([]gbdt.BinView, len(parts))
	var labels []float64
	for i, p := range parts {
		dir := t.TempDir()
		if err := ooc.Build(dir, ooc.NewDatasetSource(p), ooc.BuildOptions{MaxBins: cfg.MaxBins, ChunkRows: 64}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			// Corrupt every shard of the passive party's store so its
			// first demand load after Open fails unrecoverably.
			shards, err := filepath.Glob(filepath.Join(dir, "shard-*.bin"))
			if err != nil || len(shards) == 0 {
				t.Fatalf("no shards to corrupt: %v", err)
			}
			for _, name := range shards {
				buf, err := os.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				buf[len(buf)-1] ^= 0xFF
				if err := os.WriteFile(name, buf, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		st, err := ooc.Open(dir, ooc.Options{RetryLoads: -1})
		if err != nil {
			t.Fatal(err)
		}
		views[i] = st
		if i == len(parts)-1 {
			if labels, err = st.Labels(); err != nil {
				t.Fatal(err)
			}
		}
	}
	s, err := NewViewSession(views, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Train()
	if err == nil {
		t.Fatal("training over a corrupt store reported success")
	}
	if !strings.Contains(err.Error(), "unrecoverable") {
		t.Fatalf("abort error %v does not carry the shard detail", err)
	}
}

func TestViewSessionValidation(t *testing.T) {
	_, parts := twoPartyData(t, 60, 3, 3, 1, true, 4)
	cfg := quickConfig(SchemeMock)
	mk := func(p *dataset.Dataset) gbdt.BinView {
		mapper, err := gbdt.NewBinMapper(p, cfg.MaxBins)
		if err != nil {
			t.Fatal(err)
		}
		return gbdt.NewBinnedMatrix(p, mapper)
	}
	a, b := mk(parts[0]), mk(parts[1])
	labels := parts[1].Labels

	if _, err := NewViewSession([]gbdt.BinView{a}, labels, cfg); err == nil {
		t.Error("single view accepted")
	}
	if _, err := NewViewSession([]gbdt.BinView{a, b}, labels[:10], cfg); err == nil {
		t.Error("label/row mismatch accepted")
	}
	if _, err := NewViewSession([]gbdt.BinView{a, b}, nil, cfg); err == nil {
		t.Error("missing labels accepted")
	}
}
