package he

import (
	"crypto/rand"
	"fmt"
	"math/big"

	"vf2boost/internal/paillier"
)

// A Paillier ciphertext takes one of three forms, each one pointer wide
// (so boxing it in a Ciphertext allocates nothing) and holding one copy
// of the value:
//
//   - paillierCt, the canonical residue in [0, n²): what Encrypt,
//     Add and MulScalar return, and the only form at widths and on
//     platforms without the digit form (paillier.PublicKey.DigitForm);
//   - paillierAcc, an accumulator's n-adic digits, which AddInto
//     multiplies into in place;
//   - paillierAddend, the digits of R·c mod n² that an HAdd's right
//     operand takes. A passive party's Unmarshal converts each wire
//     ciphertext into one (the key owner's, which only decrypts what it
//     receives, keeps the canonical residue); it is never written again,
//     so one addend may be shared.
//
// Marshal, Add, MulScalar and Decrypt read the canonical residue of any
// form; the digit forms exist only where DigitForm holds.
type (
	paillierCt     struct{ ct paillier.Ciphertext }
	paillierAcc    struct{ d *paillier.Accumulator }
	paillierAddend struct{ d *paillier.Addend }
)

func (paillierCt) isCiphertext()     {}
func (paillierAcc) isCiphertext()    {}
func (paillierAddend) isCiphertext() {}

// PaillierScheme adapts internal/paillier to the Scheme interface: the
// public side every party holds. Its Encrypt draws a full r^n obfuscator;
// in a session only the key owner encrypts.
type PaillierScheme struct {
	pk *paillier.PublicKey
	// half is n/2, precomputed so Signed never allocates the threshold
	// in the decrypt hot loop.
	half *big.Int
	// digits is pk.DigitForm(): accumulators and unmarshaled
	// ciphertexts take the digit forms.
	digits bool
}

// PaillierDecryptor is the Scheme plus the private key; only Party B holds
// one. Its Encrypt obfuscates through the key owner's CRT path
// (paillier.PrivateKey.Obfuscator).
type PaillierDecryptor struct {
	PaillierScheme
	priv *paillier.PrivateKey
}

// NewPaillier generates a fresh S-bit key pair and returns the decryptor
// side. Each Encrypt computes its own obfuscator inline: the full r^n
// exponentiation of the VF-GBDT baseline until EnableFastObfuscation
// switches it to the owner's h^x.
func NewPaillier(bits int) (*PaillierDecryptor, error) {
	priv, err := paillier.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, err
	}
	return NewPaillierFromKey(priv, 0), nil
}

// NewPaillierPublic wraps a public key for a passive party, which can
// operate homomorphically but never decrypt.
func NewPaillierPublic(pk *paillier.PublicKey) *PaillierScheme {
	return &PaillierScheme{pk: pk, half: new(big.Int).Rsh(pk.N, 1), digits: pk.DigitForm()}
}

// NewPaillierFromKey wraps an existing private key. The int argument is
// ignored: it is kept only because benchmark/train.go passes one (ROADMAP
// item 1, Step 0a, drops it).
func NewPaillierFromKey(priv *paillier.PrivateKey, _ int) *PaillierDecryptor {
	return &PaillierDecryptor{PaillierScheme: *NewPaillierPublic(priv.Public()), priv: priv}
}

// EnableFastObfuscation derives the DJN obfuscation base h = r₀^n mod n²
// and switches this decryptor's encryptions to short-exponent h^x
// obfuscators served from the key owner's CRT tables (built here, once
// per base). The base never leaves the private key: PublicScheme keeps
// r^n. Call it during session setup, before concurrent use. Idempotent.
func (d *PaillierDecryptor) EnableFastObfuscation() error {
	return d.priv.EnableFastObfuscation(rand.Reader)
}

// DisableFastObfuscation reverts to baseline r^n obfuscation, so one key
// can serve both a fast and an exact-paper baseline session.
func (d *PaillierDecryptor) DisableFastObfuscation() { d.priv.DisableFastObfuscation() }

// PublicScheme returns the public view of the key. It holds the public
// key only: the owner's tables are not reachable from it.
func (d *PaillierDecryptor) PublicScheme() *PaillierScheme { return &d.PaillierScheme }

func (s *PaillierScheme) Name() string { return "paillier" }
func (s *PaillierScheme) N() *big.Int  { return s.pk.N }
func (s *PaillierScheme) Bits() int    { return s.pk.Bits() }

// HalfN returns the precomputed n/2 threshold used by Signed.
func (s *PaillierScheme) HalfN() *big.Int {
	if s.half != nil {
		return s.half
	}
	return new(big.Int).Rsh(s.pk.N, 1)
}

func (s *PaillierScheme) Encrypt(m *big.Int) (Ciphertext, error) {
	ct, err := s.pk.Encrypt(rand.Reader, m)
	if err != nil {
		return nil, err
	}
	return paillierCt{ct}, nil
}

// Encrypt is the key owner's encryption, its obfuscator drawn from the
// private key; a plaintext outside [0, N) is refused before an obfuscator
// is spent.
func (d *PaillierDecryptor) Encrypt(m *big.Int) (Ciphertext, error) {
	ct, err := d.priv.Encrypt(rand.Reader, m)
	if err != nil {
		return nil, err
	}
	return paillierCt{ct}, nil
}

// EncryptZero returns an accumulator of 1 under the digit form, else the
// canonical 1.
func (s *PaillierScheme) EncryptZero() Ciphertext {
	if s.digits {
		return paillierAcc{s.pk.ZeroAccumulator()}
	}
	return paillierCt{s.pk.EncryptZero()}
}

// canonical returns the residue in [0, n²) that ct holds in any form.
func (s *PaillierScheme) canonical(ct Ciphertext) paillier.Ciphertext {
	switch c := ct.(type) {
	case paillierAcc:
		return s.pk.AccumulatorCiphertext(c.d)
	case paillierAddend:
		return s.pk.AddendCiphertext(c.d)
	}
	return ct.(paillierCt).ct
}

func (s *PaillierScheme) Add(a, b Ciphertext) Ciphertext {
	return paillierCt{s.pk.Add(s.canonical(a), s.canonical(b))}
}

// AddInto multiplies b into dst in place when dst is an accumulator.
// Under the digit form any other dst — a canonical residue or a shared
// addend — is first copied into a fresh accumulator, and a b that is not
// an addend is converted into one on the way; without it both are
// canonical and big.Int multiplies them.
func (s *PaillierScheme) AddInto(dst, b Ciphertext) Ciphertext {
	if !s.digits {
		d := dst.(paillierCt)
		s.pk.AddInto(&d.ct, b.(paillierCt).ct)
		return d
	}
	acc, ok := dst.(paillierAcc)
	if !ok {
		acc = paillierAcc{s.pk.NewAccumulator(s.canonical(dst))}
	}
	switch b := b.(type) {
	case paillierAddend:
		s.pk.AddAddend(acc.d, b.d)
	case paillierAcc:
		s.pk.AddAccumulator(acc.d, b.d)
	default:
		s.pk.AddAddend(acc.d, s.pk.NewAddend(b.(paillierCt).ct))
	}
	return acc
}

func (s *PaillierScheme) MulScalar(a Ciphertext, k *big.Int) Ciphertext {
	ct, err := s.pk.MulScalar(s.canonical(a), k)
	if err != nil {
		// Unreachable for scheme-produced ciphertexts: Encrypt outputs
		// and Unmarshal inputs are both range-validated. Failing here is
		// caller misuse on par with mixing ciphertexts across schemes,
		// which the type assertion above already treats as a panic.
		panic(err)
	}
	return paillierCt{ct}
}

func (s *PaillierScheme) Marshal(ct Ciphertext) []byte {
	return s.canonical(ct).Bytes()
}

// Unmarshal rejects byte strings that do not decode to an element of
// (0, n²). This is the validation gate for every ciphertext arriving from
// the wire: downstream homomorphic operations and decryption may assume
// range-valid inputs because nothing out of range gets past here. Under
// the digit form it returns the ciphertext as an addend, converted here
// once however many accumulators it is added into.
func (s *PaillierScheme) Unmarshal(b []byte) (Ciphertext, error) {
	return s.unmarshal(b, s.digits)
}

// Unmarshal is the key owner's: it validates as the scheme's does but
// returns the canonical residue, since what the owner receives it
// decrypts, and Decrypt would only convert an addend back.
func (d *PaillierDecryptor) Unmarshal(b []byte) (Ciphertext, error) {
	return d.unmarshal(b, false)
}

func (s *PaillierScheme) unmarshal(b []byte, addend bool) (Ciphertext, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("he: empty paillier ciphertext")
	}
	ct := paillier.CiphertextFromBytes(b)
	if err := s.pk.ValidateCiphertext(ct); err != nil {
		return nil, fmt.Errorf("he: %w", err)
	}
	if addend {
		return paillierAddend{s.pk.NewAddend(ct)}, nil
	}
	return paillierCt{ct}, nil
}

func (s *PaillierScheme) CiphertextBytes() int { return 2 * s.pk.Bits() / 8 }

func (d *PaillierDecryptor) Decrypt(ct Ciphertext) (*big.Int, error) {
	return d.priv.Decrypt(d.canonical(ct))
}

var (
	_ Scheme    = (*PaillierScheme)(nil)
	_ Decryptor = (*PaillierDecryptor)(nil)
)
