package he

import (
	"math/big"
	"reflect"
	"sync"
	"testing"

	"vf2boost/internal/paillier"
)

// ownerDecryptor returns a decryptor with fast obfuscation on, so its
// Encrypt runs through the key owner's CRT tables.
func ownerDecryptor(t *testing.T, bits int) *PaillierDecryptor {
	t.Helper()
	d, err := NewPaillier(bits)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.EnableFastObfuscation(); err != nil {
		t.Fatal(err)
	}
	if !d.priv.OwnerObfuscation() {
		t.Fatal("EnableFastObfuscation left the owner path off")
	}
	return d
}

// passiveScheme rebuilds the scheme the way Party A does: from the bytes
// of the modulus that MsgSetup carries.
func passiveScheme(d *PaillierDecryptor) *PaillierScheme {
	return NewPaillierPublic(paillier.NewPublicKey(new(big.Int).SetBytes(d.N().Bytes())))
}

// factorLeaks walks every value reachable from root and returns the paths
// of the big.Ints that share a proper factor with n: p, q, their squares,
// or anything else that would hand the holder the factorization.
func factorLeaks(root any, n *big.Int) []string {
	var leaks []string
	// Keyed by type too: a pointer to a struct and one to its first field
	// share an address (the PrivateKey and the PublicKey embedded in it).
	type visit struct {
		at uintptr
		as reflect.Type
	}
	seen := map[visit]bool{}
	bigInt := reflect.TypeOf(big.Int{})
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Pointer:
			key := visit{v.Pointer(), v.Type()}
			if v.IsNil() || seen[key] {
				return
			}
			seen[key] = true
			walk(v.Elem(), path)
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
		case reflect.Struct:
			if v.Type() == bigInt {
				abs := v.FieldByName("abs")
				words := make([]big.Word, abs.Len())
				for i := range words {
					words[i] = big.Word(abs.Index(i).Uint())
				}
				x := new(big.Int).SetBits(words)
				if x.Sign() == 0 {
					return
				}
				if g := new(big.Int).GCD(nil, nil, x, n); g.Cmp(big.NewInt(1)) != 0 && g.Cmp(n) != 0 {
					leaks = append(leaks, path)
				}
				return
			}
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), path+"[]")
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Value(), path+"[]")
			}
		}
	}
	walk(reflect.ValueOf(root), reflect.TypeOf(root).String())
	return leaks
}

// TestPublicSchemeHoldsNoOwnerSecrets is the secrecy boundary of the
// owner tables: they are built modulo p² and q², so they must be
// reachable from the decryptor only — not from the scheme PublicScheme()
// hands out, nor from one rebuilt from the setup bytes.
func TestPublicSchemeHoldsNoOwnerSecrets(t *testing.T) {
	d := ownerDecryptor(t, 256)
	if len(factorLeaks(d, d.N())) == 0 {
		t.Fatal("the walk finds no factor of n even in the decryptor: it cannot see the owner tables")
	}
	for name, s := range map[string]*PaillierScheme{"PublicScheme()": d.PublicScheme(), "rebuilt from setup bytes": passiveScheme(d)} {
		if leaks := factorLeaks(s, d.N()); len(leaks) > 0 {
			t.Errorf("%s reaches factors of n at %v", name, leaks)
		}
		ct, err := s.Encrypt(big.NewInt(77))
		if err != nil {
			t.Fatal(err)
		}
		if v, err := d.Decrypt(ct); err != nil || v.Int64() != 77 {
			t.Errorf("%s ciphertext decrypts to %v, %v; want 77", name, v, err)
		}
	}
}

// TestOwnerCiphertextsMixWithPublicOnes: what the owner path encrypts is
// an ordinary ciphertext — it decrypts, and adds to and scales like the
// r^n ones a public scheme produces.
func TestOwnerCiphertextsMixWithPublicOnes(t *testing.T) {
	d := ownerDecryptor(t, 256)
	passive := passiveScheme(d)
	want := func(ct Ciphertext, v int64) {
		t.Helper()
		m, err := d.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if got := Signed(d, m).Int64(); got != v {
			t.Errorf("decrypted %d, want %d", got, v)
		}
	}
	own, err := d.Encrypt(big.NewInt(500))
	if err != nil {
		t.Fatal(err)
	}
	pub, err := passive.Encrypt(big.NewInt(120))
	if err != nil {
		t.Fatal(err)
	}
	want(own, 500)
	want(passive.Add(own, pub), 620)
	want(d.AddInto(d.Add(d.EncryptZero(), pub), own), 620)
	want(passive.MulScalar(own, big.NewInt(3)), 1500)
	round, err := passive.Unmarshal(d.Marshal(own))
	if err != nil {
		t.Fatal(err)
	}
	want(round, 500)
}

// TestOwnerPathSurvivesDisableEnable is what the benchmark's probes do to
// a live decryptor: fast → baseline → fast again. The second enable must
// bring the owner path back, and encryption from several goroutines must
// round-trip in each mode (run under -race).
func TestOwnerPathSurvivesDisableEnable(t *testing.T) {
	d := ownerDecryptor(t, 256)
	encryptConcurrently := func() {
		t.Helper()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int64(0); i < 8; i++ {
					ct, err := d.Encrypt(big.NewInt(i))
					if err != nil {
						t.Error(err)
						return
					}
					if v, err := d.Decrypt(ct); err != nil || v.Int64() != i {
						t.Errorf("round trip %d = %v, %v", i, v, err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	encryptConcurrently()

	d.DisableFastObfuscation()
	if d.priv.OwnerObfuscation() {
		t.Fatal("the owner path is left after disable")
	}
	encryptConcurrently()

	if err := d.EnableFastObfuscation(); err != nil {
		t.Fatal(err)
	}
	if !d.priv.OwnerObfuscation() {
		t.Fatal("re-enabling did not restore the owner path")
	}
	encryptConcurrently()
}
