package paillier

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"sync"
	"testing"
)

// pow2Ciphertexts is the input set of the kernel-equivalence tests: the
// edges of [1, n²), the values around the n-adic digit boundary, genuine
// ciphertexts and their products, and in-range non-units (multiples of p
// and q, which only the key owner can build).
func pow2Ciphertexts(t testing.TB, priv *PrivateKey) []Ciphertext {
	t.Helper()
	n := priv.N
	cts := []Ciphertext{
		{C: big.NewInt(1)},
		{C: new(big.Int).Sub(n, one)},
		{C: new(big.Int).Set(n)},
		{C: new(big.Int).Add(n, one)},
		{C: new(big.Int).Sub(priv.NSquared, one)},
		{C: new(big.Int).Mul(priv.p, big.NewInt(3))},
		{C: new(big.Int).Mul(priv.q, new(big.Int).Sub(n, big.NewInt(2)))},
	}
	var fresh []Ciphertext
	for _, v := range []int64{0, 7, -12345} {
		ct, err := priv.EncryptInt64(rand.Reader, v)
		if err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, ct)
	}
	cts = append(cts, fresh...)
	cts = append(cts, priv.Add(fresh[0], fresh[1]), priv.Add(priv.Add(fresh[1], fresh[2]), fresh[1]))
	// p·x for a genuine ciphertext x: a non-unit whose n-adic digits are
	// both full width.
	px := new(big.Int).Mul(priv.p, fresh[1].C)
	cts = append(cts, Ciphertext{C: px.Mod(px, priv.NSquared)})
	return cts
}

// TestMulScalarPow2MatchesExp pins MulScalar to big.Int.Exp, byte for
// byte: the squaring chain for every power of two the protocol uses (and
// the longest one a key admits) at the key sizes that take it, the general
// path for everything else, and reduction modulo n before either. The
// chain is also called directly, so it is checked at 512 bits too, where
// MulScalar leaves it alone. The input ciphertext must come back untouched
// — packed slots and the codec's shift constants are shared. At 2048 bits
// the chain runs twice: in Montgomery form on the kernel and on big.Int.
func TestMulScalarPow2MatchesExp(t *testing.T) {
	for _, bits := range []int{512, 1024, 2048} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			priv := testKey(t, bits)
			forEachPath(t, priv.mont != nil, func(t *testing.T) { testMulScalarPow2(t, priv) })
		})
	}
}

func testMulScalarPow2(t *testing.T, priv *PrivateKey) {
	bits := priv.Bits()
	n := priv.N
	pow := func(s uint) *big.Int { return new(big.Int).Lsh(one, s) }
	scalars := []*big.Int{
		pow(0), pow(1), pow(3), big.NewInt(16), big.NewInt(16 * 16), big.NewInt(16 * 16 * 16),
		pow(57), pow(113), pow(114), pow(115), pow(228), pow(2047),
		pow(uint(bits - 2)), // the longest chain: 2^(bits-1) may exceed n
		// ≡ 0, negative and oversized scalars reduce modulo n first,
		// onto the chain (2^5, 2^114) or onto Exp.
		new(big.Int), new(big.Int).Set(n), new(big.Int).Lsh(n, 1),
		big.NewInt(-1), new(big.Int).Neg(pow(114)),
		new(big.Int).Sub(pow(5), n), new(big.Int).Add(n, pow(114)),
		new(big.Int).Add(n, big.NewInt(5)), big.NewInt(3), new(big.Int).Sub(pow(114), one),
	}
	for ci, ct := range pow2Ciphertexts(t, priv) {
		before := new(big.Int).Set(ct.C)
		for _, k := range scalars {
			want := new(big.Int).Exp(ct.C, new(big.Int).Mod(k, n), priv.NSquared)
			got, err := priv.MulScalar(ct, k)
			if err != nil {
				t.Fatalf("ciphertext %d, k = %x: %v", ci, k, err)
			}
			if got.C.Cmp(want) != 0 {
				t.Fatalf("ciphertext %d, k = %x: MulScalar != Exp\n got %x\nwant %x", ci, k, got.C, want)
			}
			if got.C == ct.C {
				t.Fatalf("ciphertext %d, k = %x: result aliases the input", ci, k)
			}
			if e := new(big.Int).Mod(k, n); e.Sign() > 0 && e.TrailingZeroBits() == uint(e.BitLen()-1) {
				if got := priv.squarePow2(ct.C, e.BitLen()-1); got.Cmp(want) != 0 {
					t.Fatalf("ciphertext %d, k = %x: squarePow2 != Exp", ci, k)
				}
			}
		}
		if ct.C.Cmp(before) != 0 {
			t.Fatalf("ciphertext %d was mutated by MulScalar", ci)
		}
	}
}

// TestMulScalarPow2SharedCiphertext has several goroutines shift one
// ciphertext at once, as the pack workers do with a node's slots; under
// -race any write to the shared operand fails the run.
func TestMulScalarPow2SharedCiphertext(t *testing.T) {
	priv := testKey(t, pow2ChainMinBits)
	ct, err := priv.EncryptInt64(rand.Reader, 99)
	if err != nil {
		t.Fatal(err)
	}
	k := new(big.Int).Lsh(one, 114)
	want := new(big.Int).Exp(ct.C, k, priv.NSquared)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, err := priv.MulScalar(ct, k)
				if err != nil || got.C.Cmp(want) != 0 {
					t.Errorf("concurrent MulScalar = %v, %v", got.C, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzMulScalarPow2 reads arbitrary bytes as a ciphertext and shifts it by
// an arbitrary power of two: it must never panic, must reject exactly what
// ValidateCiphertext rejects, and must equal Exp otherwise (shifts past n's
// width reduce modulo n and leave the chain). The key is 2048 bits, so on
// a host with the kernel the chain runs in Montgomery form.
func FuzzMulScalarPow2(f *testing.F) {
	priv := testKey(f, montBits)
	for _, ct := range pow2Ciphertexts(f, priv) {
		for _, s := range []uint16{0, 1, 4, 114, 1022, 1023, 4096} {
			f.Add(ct.Bytes(), s)
		}
	}
	f.Add([]byte{}, uint16(3))
	f.Add(priv.NSquared.Bytes(), uint16(3))
	f.Fuzz(func(t *testing.T, raw []byte, shift uint16) {
		ct := CiphertextFromBytes(raw)
		k := new(big.Int).Lsh(one, uint(shift%4097))
		got, err := priv.MulScalar(ct, k)
		if priv.ValidateCiphertext(ct) != nil {
			if err == nil {
				t.Fatalf("MulScalar accepted an invalid ciphertext %x", raw)
			}
			return
		}
		if err != nil {
			t.Fatalf("MulScalar(%x, 2^%d): %v", raw, shift%4097, err)
		}
		if want := new(big.Int).Exp(ct.C, k.Mod(k, priv.N), priv.NSquared); got.C.Cmp(want) != 0 {
			t.Fatalf("MulScalar(%x, 2^%d) != Exp", raw, shift%4097)
		}
	})
}
