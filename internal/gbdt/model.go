package gbdt

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// FeatureImportance returns the total split gain attributed to each
// feature across all trees (the "gain" importance of common GBDT
// libraries).
func (m *Model) FeatureImportance() []float64 {
	imp := make([]float64, m.NumFeatures)
	for _, t := range m.Trees {
		for i := range t.Nodes {
			n := &t.Nodes[i]
			if !n.IsLeaf() && int(n.Feature) < len(imp) {
				imp[n.Feature] += n.Gain
			}
		}
	}
	return imp
}

// modelFormatVersion guards against loading incompatible model files.
const modelFormatVersion = 1

type modelFile struct {
	Version int    `json:"version"`
	Model   *Model `json:"model"`
}

// Save writes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(modelFile{Version: modelFormatVersion, Model: m})
}

// SaveFile writes the model to a file.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a model saved with Save.
func Load(r io.Reader) (*Model, error) {
	var mf modelFile
	if err := json.NewDecoder(r).Decode(&mf); err != nil {
		return nil, fmt.Errorf("gbdt: decoding model: %w", err)
	}
	if mf.Version != modelFormatVersion {
		return nil, fmt.Errorf("gbdt: unsupported model version %d", mf.Version)
	}
	if mf.Model == nil || len(mf.Model.Trees) == 0 {
		return nil, fmt.Errorf("gbdt: model file contains no trees")
	}
	return mf.Model, nil
}
