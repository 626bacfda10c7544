package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestCounterLedger pins what each of the 16 combinations of the paper's
// four switches costs one fixed mock session at Workers 1: encryptions,
// decryptions and the model bytes always, and HAdds, SMuls and the
// shaper's bytes when OptimisticSplit is off. Under optimism the tasks a
// correction aborts stop at whatever unit they reached, so those three
// move from run to run while the encryptions, decryptions and model do
// not. A cell moves only with a change that means to move it, and the
// change says which cells and why in DESIGN.md.
func TestCounterLedger(t *testing.T) {
	const (
		sequential = "81749db604d5bd523bd471445002c6e02418b95e256ec7d8d8b3c77c226c544b"
		optimistic = "f327d0813e19e728308fa76cf42edfaf6ff081e254bead39bf30292024fb4fa9"
	)
	// Bits of the mask: 1 BlasterEncryption, 2 ReorderedAccumulation,
	// 4 OptimisticSplit, 8 HistogramPacking.
	ledger := [16]struct {
		enc, dec, hadds, smuls, bytes int64
		model                         string
	}{
		0b0000: {1200, 894, 6288, 3769, 88607, sequential},
		0b0001: {1200, 894, 6288, 3769, 89087, sequential},
		0b0010: {1200, 894, 7666, 1698, 88607, sequential},
		0b0011: {1200, 894, 7666, 1698, 89087, sequential},
		0b0100: {1200, 894, 0, 0, 0, optimistic},
		0b0101: {1200, 894, 0, 0, 0, optimistic},
		0b0110: {1200, 894, 0, 0, 0, optimistic},
		0b0111: {1200, 894, 0, 0, 0, optimistic},
		0b1000: {1200, 228, 6954, 4435, 73080, sequential},
		0b1001: {1200, 228, 6954, 4435, 73560, sequential},
		0b1010: {1200, 228, 8332, 2364, 73080, sequential},
		0b1011: {1200, 228, 8332, 2364, 73560, sequential},
		0b1100: {1200, 228, 0, 0, 0, optimistic},
		0b1101: {1200, 228, 0, 0, 0, optimistic},
		0b1110: {1200, 228, 0, 0, 0, optimistic},
		0b1111: {1200, 228, 0, 0, 0, optimistic},
	}
	_, parts := twoPartyData(t, 400, 4, 3, 0.6, false, 77)
	for mask, want := range ledger {
		cfg := MockConfig()
		cfg.KeyBits, cfg.MaxDepth, cfg.MaxBins, cfg.Trees, cfg.Workers = 512, 4, 16, 3, 1
		cfg.BlasterEncryption = mask&1 != 0
		cfg.ReorderedAccumulation = mask&2 != 0
		cfg.OptimisticSplit = mask&4 != 0
		cfg.HistogramPacking = mask&8 != 0
		m, s := trainFed(t, parts, cfg, WithWAN(1e5, 0))
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		c := s.Crypto()
		got := want
		got.enc, got.dec, got.model = c.Encryptions(), c.Decryptions(), fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
		if !cfg.OptimisticSplit {
			got.hadds, got.smuls, got.bytes = c.HAdds(), c.SMuls(), s.Shaper().Bytes()
		}
		if got != want {
			t.Errorf("mask %04b: got %+v\n\twant %+v", mask, got, want)
		}
	}
}
