package fedlr

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// goldenWeights is the SHA-256 of the weights TestTrainGolden trains, as
// little-endian float64 bits: WA, then WB, then B0.
const goldenWeights = "98de0e125e0f0b8177416b0795120bab1ae8c5915171fe0900b4b717a3f1b983"

// TestTrainGolden pins the trained weights bit for bit, with the
// re-ordered and with the naive gradient reduction, over the mock scheme
// and 512-bit Paillier: all four train the same model. The reduction's
// ciphertexts may change with its merge order, but not the integers they
// decrypt to, so neither may the weights.
func TestTrainGolden(t *testing.T) {
	_, parts := lrParts(t, 160, 3, 4, 5)
	for _, scheme := range []string{"mock", "paillier"} {
		for _, reordered := range []bool{true, false} {
			name := scheme + "/naive"
			if reordered {
				name = scheme + "/reordered"
			}
			t.Run(name, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Scheme, cfg.KeyBits, cfg.Reordered = scheme, 512, reordered
				cfg.Epochs, cfg.BatchSize = 2, 48
				m, _, err := Train(parts, cfg)
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				for _, v := range append(append(append([]float64(nil), m.WA...), m.WB...), m.B0) {
					binary.Write(h, binary.LittleEndian, math.Float64bits(v))
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != goldenWeights {
					t.Errorf("weights hash %s, want %s (weights %v)", got, goldenWeights, fmt.Sprint(m.WA, m.WB, m.B0))
				}
			})
		}
	}
}
