// Package fedlr implements two-party vertical federated logistic
// regression with additively homomorphic encryption, the generalization
// the VF²Boost paper sketches in its Section 5 discussions: "for the
// vertical federated LR, we can accelerate the reduction of encrypted
// gradients in a mini-batch by the re-ordered accumulation technique".
//
// The protocol follows the coordinator-free scheme of Yang et al. (2019,
// reference [84] of the paper), with the logistic gradient factor
// linearized by the first-order Taylor expansion σ(u) ≈ 0.5 + 0.25·u:
//
//	d_i = 0.25·(u_A_i + u_B_i) + 0.5 - y_i
//
// Each party holds its own Paillier key pair. To update Party A's
// weights, Party B ships Enc_B(0.25·u_B_i + 0.5 - y_i); A completes d_i
// under B's key with its plaintext partial margins, reduces
// Σ_i x_ij ⊗ [[d_i]] per feature — the encrypted-gradient reduction the
// re-ordered accumulation accelerates — masks the result with one-time
// noise, and has B decrypt the masked gradient. B's update is symmetric
// under A's key. Neither party sees the other's features, margins or (for
// A) the labels; each sees only noise-masked gradient sums of its own
// features.
package fedlr

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"

	"vf2boost/internal/dataset"
	"vf2boost/internal/fixedpoint"
	"vf2boost/internal/he"
)

// xScale is B^xExp with the default base 16.
var xScale = math.Pow(fixedpoint.DefaultBase, xExp)

// Config configures vertical federated LR training.
type Config struct {
	// Epochs is the number of passes over the training instances.
	Epochs int
	// BatchSize is the mini-batch size.
	BatchSize int
	// LearningRate scales the gradient step.
	LearningRate float64
	// L2 is the ridge penalty coefficient; besides regularizing, it
	// bounds the gradients, which is what makes the paper's packing
	// technique applicable to LR (Section 5.2 discussion).
	L2 float64
	// Scheme is "paillier" or "mock"; KeyBits sizes the Paillier moduli.
	Scheme  string
	KeyBits int
	// Reordered toggles the re-ordered accumulation of encrypted
	// gradient reductions (the ablation of the paper's LR claim).
	Reordered bool
	// Packed applies the polynomial cipher packing to the masked
	// gradient exchange — the paper's Section 5.2 discussion: "model
	// gradients can be bounded by regularization techniques in vertical
	// federated LR ... so that our packing technique can be applied".
	// Gradient contributions are clipped to ±GradClip so the masked sums
	// are provably bounded, then shifted non-negative and packed
	// t-per-ciphertext, cutting the peer's decryptions by t×.
	Packed bool
	// GradClip bounds each instance's linearized gradient contribution
	// (applied whether or not Packed is set, so the two modes train the
	// same model).
	GradClip float64
	Seed     int64
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	return Config{
		Epochs:       3,
		BatchSize:    256,
		LearningRate: 0.5,
		L2:           1e-3,
		Scheme:       "paillier",
		KeyBits:      512,
		Reordered:    true,
		Packed:       true,
		GradClip:     2,
		Seed:         1,
	}
}

// Model is the jointly-trained logistic model; in deployment each party
// keeps only its own weight block.
type Model struct {
	WA []float64 // Party A's weights
	WB []float64 // Party B's weights
	B0 float64   // intercept (held by B)
}

// PredictMargin computes the joint raw margin for row i.
func (m *Model) PredictMargin(a, b *dataset.Dataset, i int) float64 {
	s := m.B0
	cols, vals := a.Row(i)
	for k, j := range cols {
		s += m.WA[j] * vals[k]
	}
	cols, vals = b.Row(i)
	for k, j := range cols {
		s += m.WB[j] * vals[k]
	}
	return s
}

// PredictAll computes joint margins for all aligned rows.
func (m *Model) PredictAll(a, b *dataset.Dataset) []float64 {
	out := make([]float64, a.Rows())
	for i := range out {
		out[i] = m.PredictMargin(a, b, i)
	}
	return out
}

// xExp is the fixed-point exponent feature values are encoded at for the
// SMul in the gradient reduction: a term x_ij ⊗ [[d_i]] carries exponent
// d.Exp + xExp, so the reduction codec's exponent window is shifted by
// xExp to keep the re-ordered workspaces aligned.
const xExp = 6

// party is one side's private state.
type party struct {
	data  *dataset.Dataset
	w     []float64
	dec   he.Decryptor      // own key pair
	codec *fixedpoint.Codec // own encoding context
	peer  *fixedpoint.Codec // codec over the peer's public scheme
	red   *fixedpoint.Codec // reduction codec (peer scheme, shifted exps)
	xMax  float64           // max |feature value| of this party's shard
}

// maxAbsFeature scans a shard once for its largest absolute stored value,
// the bound the packing shift needs. The scan is party-local.
func maxAbsFeature(d *dataset.Dataset) float64 {
	m := 1.0
	for i := 0; i < d.Rows(); i++ {
		_, vals := d.Row(i)
		for _, v := range vals {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
	}
	return m
}

// Stats reports the cryptographic work of a training run.
type Stats struct {
	Encryptions int64
	Decryptions int64
	HAdds       int64
	Scalings    int64
}

// Train runs the two-party protocol in process: parts[0] is Party A
// (features only), parts[1] is Party B (features + labels).
func Train(parts []*dataset.Dataset, cfg Config) (*Model, *Stats, error) {
	if len(parts) != 2 {
		return nil, nil, fmt.Errorf("fedlr: need exactly two parties, got %d", len(parts))
	}
	a, b := parts[0], parts[1]
	if a.Rows() != b.Rows() {
		return nil, nil, fmt.Errorf("fedlr: row mismatch %d vs %d", a.Rows(), b.Rows())
	}
	if b.Labels == nil {
		return nil, nil, fmt.Errorf("fedlr: party B must hold labels")
	}
	if a.Labels != nil {
		return nil, nil, fmt.Errorf("fedlr: party A must not hold labels")
	}
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 || cfg.LearningRate <= 0 {
		return nil, nil, fmt.Errorf("fedlr: non-positive hyper-parameter")
	}

	decA, err := newDecryptor(cfg)
	if err != nil {
		return nil, nil, err
	}
	decB, err := newDecryptor(cfg)
	if err != nil {
		return nil, nil, err
	}
	shifted := fixedpoint.WithExponents(fixedpoint.DefaultBaseExp+xExp, fixedpoint.DefaultExpSpread)
	pa := &party{
		data:  a,
		w:     make([]float64, a.Cols()),
		dec:   decA,
		codec: fixedpoint.NewCodec(decA, fixedpoint.WithSeed(cfg.Seed)),
		peer:  fixedpoint.NewCodec(decB, fixedpoint.WithSeed(cfg.Seed+1)),
	}
	pa.red = fixedpoint.NewCodec(decB, shifted, fixedpoint.WithSeed(cfg.Seed+4))
	pa.xMax = maxAbsFeature(a)
	pb := &party{
		data:  b,
		w:     make([]float64, b.Cols()),
		dec:   decB,
		codec: fixedpoint.NewCodec(decB, fixedpoint.WithSeed(cfg.Seed+2)),
		peer:  fixedpoint.NewCodec(decA, fixedpoint.WithSeed(cfg.Seed+3)),
	}
	pb.red = fixedpoint.NewCodec(decA, shifted, fixedpoint.WithSeed(cfg.Seed+5))
	pb.xMax = maxAbsFeature(b)
	if cfg.GradClip <= 0 {
		cfg.GradClip = 2
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	n := a.Rows()
	model := &Model{WA: pa.w, WB: pb.w}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		order := rng.Perm(n)
		for lo := 0; lo < n; lo += cfg.BatchSize {
			hi := lo + cfg.BatchSize
			if hi > n {
				hi = n
			}
			batch := order[lo:hi]
			if err := trainBatch(pa, pb, model, batch, cfg, rng); err != nil {
				return nil, nil, err
			}
		}
	}

	st := &Stats{}
	for _, c := range []*fixedpoint.Codec{pa.codec, pa.peer, pa.red, pb.codec, pb.peer, pb.red} {
		st.Encryptions += c.Stats().Encryptions()
		st.Decryptions += c.Stats().Decryptions()
		st.HAdds += c.Stats().HAdds()
		st.Scalings += c.Stats().Scalings()
	}
	return model, st, nil
}

// trainBatch runs one mini-batch: A's gradient under B's key, B's
// gradient under A's key, both recovered through one-time masking.
func trainBatch(pa, pb *party, m *Model, batch []int, cfg Config, rng *rand.Rand) error {
	// Plaintext partial margins on each side.
	uA := make([]float64, len(batch))
	uB := make([]float64, len(batch))
	for k, i := range batch {
		uA[k] = partial(pa.data, pa.w, i)
		uB[k] = partial(pb.data, pb.w, i) + m.B0
	}

	// Each side's plaintext contribution is clipped to ±GradClip before
	// encryption, bounding |d_i| <= 2·GradClip — the regularization-style
	// bound the packing path relies on (and applied in all modes so
	// packed and unpacked training match).
	clip := func(v float64) float64 {
		return math.Max(-cfg.GradClip, math.Min(cfg.GradClip, v))
	}

	// --- A's gradient, under B's key --------------------------------
	// B -> A: Enc_B(0.25·u_B_i + 0.5 - y_i).
	dB := make([]fixedpoint.EncNum, len(batch))
	for k, i := range batch {
		e, err := pb.codec.EncryptValue(clip(0.25*uB[k] + 0.5 - pb.data.Labels[i]))
		if err != nil {
			return err
		}
		dB[k] = e
	}
	// A completes d_i = dB_i + 0.25·u_A_i under B's key.
	dFull := make([]fixedpoint.EncNum, len(batch))
	for k := range batch {
		e, err := pa.peer.EncryptValue(clip(0.25 * uA[k]))
		if err != nil {
			return err
		}
		dFull[k] = pa.peer.AddEnc(dB[k], e)
	}
	gradA := reduceGradient(pa.red, pa.data, batch, dFull, cfg.Reordered)
	// Mask, have B decrypt, unmask, step.
	if err := maskedStep(pa, pb.dec, gradA, len(batch), cfg, rng); err != nil {
		return err
	}

	// --- B's gradient, under A's key --------------------------------
	// A -> B: Enc_A(0.25·u_A_i).
	dA := make([]fixedpoint.EncNum, len(batch))
	for k := range batch {
		e, err := pa.codec.EncryptValue(clip(0.25 * uA[k]))
		if err != nil {
			return err
		}
		dA[k] = e
	}
	dFullB := make([]fixedpoint.EncNum, len(batch))
	for k, i := range batch {
		e, err := pb.peer.EncryptValue(clip(0.25*uB[k] + 0.5 - pb.data.Labels[i]))
		if err != nil {
			return err
		}
		dFullB[k] = pb.peer.AddEnc(dA[k], e)
	}
	gradB := reduceGradient(pb.red, pb.data, batch, dFullB, cfg.Reordered)
	if err := maskedStep(pb, pa.dec, gradB, len(batch), cfg, rng); err != nil {
		return err
	}

	// Intercept update stays on B in plaintext: d̄ over the batch using
	// the same linearization (B may compute it exactly from the masked
	// joint margin; the Taylor form keeps parity with the weights).
	var dSum float64
	for k, i := range batch {
		dSum += 0.25*(uA[k]+uB[k]) + 0.5 - pb.data.Labels[i]
	}
	m.B0 -= cfg.LearningRate * dSum / float64(len(batch))
	return nil
}

// partial computes x_i · w over one party's features.
func partial(d *dataset.Dataset, w []float64, i int) float64 {
	cols, vals := d.Row(i)
	s := 0.0
	for k, j := range cols {
		s += w[j] * vals[k]
	}
	return s
}

// reduceGradient computes the encrypted per-feature gradient sums
// Σ_i x_ij ⊗ [[d_i]], one fixedpoint.Sums cell per feature: with
// reordered the reduction lands in per-exponent workspaces (plain HAdds)
// and folds once per feature; otherwise every addition may scale (the
// naive path the paper's discussion contrasts). A feature no instance of
// the batch stores stays nil.
func reduceGradient(codec *fixedpoint.Codec, d *dataset.Dataset, batch []int, enc []fixedpoint.EncNum, reordered bool) []fixedpoint.EncNum {
	sums := fixedpoint.NewSums(codec, d.Cols(), reordered)
	var hadds int64
	for k, i := range batch {
		ci, vals := d.Row(i)
		for t, j := range ci {
			// Feature values are encoded as small signed integers at
			// exponent xExp; the SMul shifts the term's exponent by
			// xExp, into the reduction codec's window.
			scalar := big.NewInt(int64(math.Round(vals[t] * xScale)))
			sums.Add(int(j), fixedpoint.EncNum{
				Exp: enc[k].Exp + xExp,
				Ct:  codec.Scheme().MulScalar(enc[k].Ct, scalar),
			})
		}
		hadds += int64(len(ci))
	}
	out := make([]fixedpoint.EncNum, d.Cols())
	for j := range out {
		// No cell sits below BaseExp, so none is scaled past its top.
		out[j] = sums.Resolve(j, codec.BaseExp(), &hadds)
	}
	codec.Stats().AddHAdds(hadds)
	return out
}

// maskedStep recovers the gradient through one-time masking and applies
// the SGD update with L2. With cfg.Packed the masked, shifted gradient
// ciphertexts of the occupied features are packed t-per-ciphertext before
// the peer decrypts them.
func maskedStep(p *party, peerDec he.Decryptor, grad []fixedpoint.EncNum, batchLen int, cfg Config, rng *rand.Rand) error {
	codec, w := p.red, p.w
	decay := func(j int) { w[j] -= cfg.LearningRate * cfg.L2 * w[j] }
	apply := func(j int, sum float64) {
		g := sum / float64(batchLen)
		w[j] -= cfg.LearningRate * (g + cfg.L2*w[j])
	}

	if !cfg.Packed {
		for j := range w {
			if grad[j].Ct == nil {
				decay(j)
				continue
			}
			mask := rng.Float64()*200 - 100
			em, err := codec.EncryptValue(mask)
			if err != nil {
				return err
			}
			masked := codec.AddEnc(grad[j], em)
			// The peer decrypts the masked sum and returns it; only the
			// masked value crosses the boundary.
			plain, err := codec.Decrypt(peerDec, masked)
			if err != nil {
				return err
			}
			apply(j, plain-mask)
		}
		return nil
	}

	// Packed path. |g_j| <= batch·2·GradClip·xMax, so shifting by that
	// bound makes every masked value non-negative and provably below
	// 2·bound + maskRange — the slot width M follows.
	bound := float64(batchLen) * 2 * cfg.GradClip * p.xMax
	maskRange := bound
	unified := codec.BaseExp() + codec.ExpSpread() - 1
	maxVal := 2*bound + maskRange
	bits := int(math.Ceil(math.Log2(maxVal*math.Pow(float64(codec.Base()), float64(unified))))) + 2
	s := codec.Scheme()
	if bits >= s.Bits() {
		return fmt.Errorf("fedlr: packed slots need %d bits but modulus has %d; lower BatchSize or GradClip", bits, s.Bits())
	}
	capacity := (s.Bits() - 1) / bits
	if capacity < 1 {
		capacity = 1
	}

	var occupied []int
	var cts []he.Ciphertext
	masks := make(map[int]float64)
	for j := range w {
		if grad[j].Ct == nil {
			decay(j)
			continue
		}
		mask := rng.Float64() * maskRange
		masks[j] = mask
		shiftNum, err := codec.EncodeAt(bound+mask, unified)
		if err != nil {
			return err
		}
		sc, err := s.Encrypt(shiftNum.Man)
		if err != nil {
			return err
		}
		g := codec.ScaleEnc(grad[j], unified)
		codec.Stats().AddHAdds(1)
		cts = append(cts, s.Add(g.Ct, sc))
		occupied = append(occupied, j)
	}
	for lo := 0; lo < len(cts); lo += capacity {
		hi := lo + capacity
		if hi > len(cts) {
			hi = len(cts)
		}
		packed, err := codec.Pack(cts[lo:hi], bits)
		if err != nil {
			return err
		}
		plain, err := peerDec.Decrypt(packed)
		if err != nil {
			return err
		}
		codec.Stats().AddDecryptions(1)
		for k, man := range fixedpoint.Unpack(plain, bits, hi-lo) {
			j := occupied[lo+k]
			v := codec.DecodeShifted(man, unified)
			apply(j, v-bound-masks[j])
		}
	}
	return nil
}

// newDecryptor builds one party's key pair.
func newDecryptor(cfg Config) (he.Decryptor, error) {
	switch cfg.Scheme {
	case "mock":
		return he.NewMock(512), nil
	case "paillier":
		return he.NewPaillier(cfg.KeyBits)
	default:
		return nil, fmt.Errorf("fedlr: unknown scheme %q", cfg.Scheme)
	}
}

// Sigmoid converts a margin to a probability.
func Sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
