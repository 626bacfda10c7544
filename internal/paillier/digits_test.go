package paillier

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"testing"
)

// digitCiphertexts is pow2Ciphertexts plus the operands whose digit pairs
// sit at an edge: α = 0 (multiples of n), γ = 0 (values below n), more
// non-units (multiples of q) and random residues of [1, n²).
func digitCiphertexts(t testing.TB, priv *PrivateKey) []Ciphertext {
	n := priv.N
	cts := pow2Ciphertexts(t, priv)
	cts = append(cts,
		Ciphertext{C: new(big.Int).Mul(n, big.NewInt(5))},
		Ciphertext{C: new(big.Int).Mul(n, new(big.Int).Sub(n, one))},
		Ciphertext{C: big.NewInt(2)},
		Ciphertext{C: new(big.Int).Mul(priv.q, big.NewInt(7))},
		Ciphertext{C: new(big.Int).Mul(priv.q, priv.q)},
	)
	rng := mrand.New(mrand.NewSource(39))
	for i := 0; i < 6; i++ {
		r := new(big.Int).Rand(rng, new(big.Int).Sub(priv.NSquared, one))
		cts = append(cts, Ciphertext{C: r.Add(r, one)})
	}
	return cts
}

// TestDigitHAddMatchesBigInt pins the digit-form HAdd to big.Int's
// Mul+Mod: every pair of operands added as addend into accumulator and as
// accumulator into accumulator, one long chain through all of them, and
// both forms' round trip to the canonical residue. No operand may change
// under an HAdd. The key is 2048 bits, so the digit form is what the
// Montgomery path selects; the big.Int path must not select it and runs
// the same chain through AddInto.
func TestDigitHAddMatchesBigInt(t *testing.T) {
	priv := testKey(t, montBits)
	forEachPath(t, true, func(t *testing.T) {
		if priv.DigitForm() != montKernel {
			t.Fatalf("DigitForm = %v with montKernel = %v", priv.DigitForm(), montKernel)
		}
		if testKey(t, 1024).DigitForm() {
			t.Fatal("a 1024-bit key selected the digit form")
		}
		testDigitHAdd(t, priv)
	})
}

func testDigitHAdd(t *testing.T, priv *PrivateKey) {
	cts := digitCiphertexts(t, priv)
	mulMod := func(x, y *big.Int) *big.Int {
		z := new(big.Int).Mul(x, y)
		return z.Mod(z, priv.NSquared)
	}
	if !priv.DigitForm() {
		acc := priv.EncryptZero()
		want := big.NewInt(1)
		for i, ct := range cts {
			priv.AddInto(&acc, ct)
			if want = mulMod(want, ct.C); acc.C.Cmp(want) != 0 {
				t.Fatalf("AddInto chain step %d = %x, want %x", i, acc.C, want)
			}
		}
		return
	}
	addends := make([]*Addend, len(cts))
	accs := make([]*Accumulator, len(cts))
	for i, ct := range cts {
		addends[i], accs[i] = priv.NewAddend(ct), priv.NewAccumulator(ct)
		if got := priv.AddendCiphertext(addends[i]); got.C.Cmp(ct.C) != 0 {
			t.Fatalf("operand %d: addend reads back %x, want %x", i, got.C, ct.C)
		}
		if got := priv.AccumulatorCiphertext(accs[i]); got.C.Cmp(ct.C) != 0 {
			t.Fatalf("operand %d: accumulator reads back %x, want %x", i, got.C, ct.C)
		}
	}
	for i, x := range cts {
		for j, y := range cts {
			want := mulMod(x.C, y.C)
			acc := priv.NewAccumulator(x)
			priv.AddAddend(acc, addends[j])
			if got := priv.AccumulatorCiphertext(acc); got.C.Cmp(want) != 0 {
				t.Fatalf("addend %d into accumulator %d = %x, want %x", j, i, got.C, want)
			}
			acc = priv.NewAccumulator(x)
			priv.AddAccumulator(acc, accs[j])
			if got := priv.AccumulatorCiphertext(acc); got.C.Cmp(want) != 0 {
				t.Fatalf("accumulator %d into accumulator %d = %x, want %x", j, i, got.C, want)
			}
		}
	}
	acc := priv.ZeroAccumulator()
	want := big.NewInt(1)
	for i := range cts {
		priv.AddAddend(acc, addends[i])
		want = mulMod(want, cts[i].C)
		// Every third step also folds the running sum into itself, as
		// a merge of two accumulators does.
		if i%3 == 2 {
			priv.AddAccumulator(acc, acc)
			want = mulMod(want, want)
		}
		if got := priv.AccumulatorCiphertext(acc); got.C.Cmp(want) != 0 {
			t.Fatalf("chain step %d = %x, want %x", i, got.C, want)
		}
	}
	for i, ct := range cts {
		if priv.AddendCiphertext(addends[i]).C.Cmp(ct.C) != 0 || priv.AccumulatorCiphertext(accs[i]).C.Cmp(ct.C) != 0 {
			t.Fatalf("operand %d changed under HAdd", i)
		}
	}
}

// TestDigitHAddDecrypts adds genuine encryptions in digit form and
// decrypts the sum: Dec(Σ) = Σ m mod n, negative values included.
func TestDigitHAddDecrypts(t *testing.T) {
	if !montRunnable() {
		t.Skip("CPU lacks ADX/BMI2: the kernel cannot run here")
	}
	priv := testKey(t, montBits)
	acc := priv.ZeroAccumulator()
	var want int64
	for _, v := range []int64{3, -17, 1 << 40, 0, -(1 << 39), 12345} {
		ct, err := priv.EncryptInt64(rand.Reader, v)
		if err != nil {
			t.Fatal(err)
		}
		priv.AddAddend(acc, priv.NewAddend(ct))
		want += v
	}
	if got, err := priv.DecryptInt64(priv.AccumulatorCiphertext(acc)); err != nil || got != want {
		t.Fatalf("decrypted digit-form sum = %d, %v; want %d", got, err, want)
	}
}

// FuzzDigitHAdd reads two arbitrary byte strings as ciphertexts of a
// 2048-bit key. Where both are valid, the digit-form HAdd — addend into
// accumulator and accumulator into accumulator — must equal big.Int's
// Mul+Mod, and each form must read back the ciphertext it was made from.
// The digit arithmetic runs on the kernel where the CPU has one and on the
// portable word loop where it is compiled out.
func FuzzDigitHAdd(f *testing.F) {
	priv := testKey(f, montBits)
	cts := digitCiphertexts(f, priv)
	for i, ct := range cts {
		f.Add(ct.Bytes(), cts[(i+1)%len(cts)].Bytes())
	}
	f.Add([]byte{}, []byte{1})
	f.Add(priv.NSquared.Bytes(), []byte{1})
	f.Fuzz(func(t *testing.T, rawX, rawY []byte) {
		if !montRunnable() {
			t.Skip("CPU lacks ADX/BMI2: the kernel cannot run here")
		}
		x, y := CiphertextFromBytes(rawX), CiphertextFromBytes(rawY)
		if priv.ValidateCiphertext(x) != nil || priv.ValidateCiphertext(y) != nil {
			return
		}
		want := new(big.Int).Mul(x.C, y.C)
		want.Mod(want, priv.NSquared)
		ay := priv.NewAddend(y)
		if got := priv.AddendCiphertext(ay); got.C.Cmp(y.C) != 0 {
			t.Fatalf("addend of %x reads back %x", y.C, got.C)
		}
		acc := priv.NewAccumulator(x)
		if got := priv.AccumulatorCiphertext(acc); got.C.Cmp(x.C) != 0 {
			t.Fatalf("accumulator of %x reads back %x", x.C, got.C)
		}
		priv.AddAddend(acc, ay)
		if got := priv.AccumulatorCiphertext(acc); got.C.Cmp(want) != 0 {
			t.Fatalf("HAdd(%x, %x) = %x, want %x", x.C, y.C, got.C, want)
		}
		acc = priv.NewAccumulator(x)
		priv.AddAccumulator(acc, priv.NewAccumulator(y))
		if got := priv.AccumulatorCiphertext(acc); got.C.Cmp(want) != 0 {
			t.Fatalf("accumulator HAdd(%x, %x) = %x, want %x", x.C, y.C, got.C, want)
		}
	})
}
