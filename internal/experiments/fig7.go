package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"vf2boost/internal/fixedpoint"
	"vf2boost/internal/he"
)

// Fig7Row is one bar of Figure 7: the single-thread throughput of one
// cryptography operation.
type Fig7Row struct {
	Op        string
	OpsPerSec float64
}

// Fig7 measures the throughput of the cryptography operations the cost
// model of Section 5 is built on, over values drawn from a normal
// distribution as in the paper: encryption (with and without a
// precomputed-obfuscator pool), decryption, naive homomorphic addition
// over mixed exponents, re-ordered homomorphic addition, scalar
// multiplication, and packed decryption (effective per-value rate).
func Fig7(keyBits, samples int) ([]Fig7Row, error) {
	dec, err := decryptorFor("paillier", keyBits)
	if err != nil {
		return nil, err
	}
	codec := fixedpoint.NewCodec(dec, fixedpoint.WithSeed(7))
	rng := rand.New(rand.NewSource(7))
	values := make([]float64, samples)
	for i := range values {
		values[i] = rng.NormFloat64()
	}

	var rows []Fig7Row
	timed := func(op string, n int, fn func() error) error {
		start := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("experiments: fig7 %s: %w", op, err)
		}
		rows = append(rows, Fig7Row{Op: op, OpsPerSec: float64(n) / time.Since(start).Seconds()})
		return nil
	}

	// Encrypt.
	cts := make([]fixedpoint.EncNum, samples)
	if err := timed("Encrypt", samples, func() error {
		for i, v := range values {
			e, err := codec.EncryptValue(v)
			if err != nil {
				return err
			}
			cts[i] = e
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Decrypt.
	if err := timed("Decrypt", samples, func() error {
		for _, e := range cts {
			if _, err := codec.Decrypt(dec, e); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Naive HAdd: accumulate mixed-exponent ciphertexts into one bin.
	if err := timed("HAdd (naive)", samples, func() error {
		acc := codec.EncryptZero()
		for _, e := range cts {
			codec.AddEncInto(&acc, e)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Re-ordered HAdd: per-exponent workspaces, E-1 scalings at the end.
	if err := timed("HAdd (re-ordered)", samples, func() error {
		rs := fixedpoint.NewSums(codec, 1, true)
		for _, e := range cts {
			rs.Add(0, e)
		}
		rs.Resolve(0, 0, new(int64))
		return nil
	}); err != nil {
		return nil, err
	}

	// SMul with a histogram-scaling-sized factor.
	if err := timed("SMul", samples, func() error {
		for _, e := range cts {
			codec.ScaleEnc(e, e.Exp+2)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Packed decryption: t values per Decrypt call. Use non-negative
	// encodings as the packing shift guarantees in real histograms.
	packBits := fixedpoint.DefaultPackBits
	capacity := fixedpoint.PackCapacity(dec, packBits)
	unified := codec.BaseExp() + codec.ExpSpread() - 1
	pos := make([]he.Ciphertext, samples)
	for i := range pos {
		n, err := codec.EncodeAt(1.0+values[i]*values[i], unified)
		if err != nil {
			return nil, err
		}
		ct, err := dec.Encrypt(n.Man)
		if err != nil {
			return nil, err
		}
		pos[i] = ct
	}
	// Packing cost (Party A's side: t-1 SMul + t-1 HAdd per group).
	var packedCts []he.Ciphertext
	var groupSizes []int
	if err := timed("Pack (per value)", samples, func() error {
		for lo := 0; lo < samples; lo += capacity {
			hi := lo + capacity
			if hi > samples {
				hi = samples
			}
			packed, err := codec.Pack(pos[lo:hi], packBits)
			if err != nil {
				return err
			}
			packedCts = append(packedCts, packed)
			groupSizes = append(groupSizes, hi-lo)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Packed decryption (Party B's side): one Decrypt recovers t values,
	// so the effective per-value decryption rate rises ~t×.
	if err := timed(fmt.Sprintf("Decrypt (packed x%d)", capacity), samples, func() error {
		for i, packed := range packedCts {
			plain, err := dec.Decrypt(packed)
			if err != nil {
				return err
			}
			fixedpoint.Unpack(plain, packBits, groupSizes[i])
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// PrintFig7 renders the rows in the paper's layout.
func PrintFig7(w io.Writer, keyBits int, rows []Fig7Row) {
	fmt.Fprintf(w, "Figure 7: cryptography throughput (ops/s, single thread, S=%d)\n", keyBits)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %12.0f\n", r.Op, r.OpsPerSec)
	}
}
