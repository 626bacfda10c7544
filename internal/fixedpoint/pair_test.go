package fixedpoint

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"vf2boost/internal/he"
	"vf2boost/internal/paillier"
)

// pairBackend is one scheme the folded-layout properties run over, with
// the largest instance count worth paying for on it.
type pairBackend struct {
	name  string
	codec *Codec
	dec   he.Decryptor
	rows  int
}

// testKeys caches the Paillier keys of the package's tests by size.
var testKeys = map[int]*paillier.PrivateKey{}

func testKey(t testing.TB, bits int) *paillier.PrivateKey {
	t.Helper()
	if testKeys[bits] == nil {
		k, err := paillier.GenerateKey(cryptoRand{}, bits)
		if err != nil {
			t.Fatal(err)
		}
		testKeys[bits] = k
	}
	return testKeys[bits]
}

func pairBackends(t *testing.T) []pairBackend {
	t.Helper()
	pd := he.NewPaillierFromKey(testKey(t, 512), 0)
	md := he.NewMock(512)
	rows := 1500
	if testing.Short() {
		rows = 200
	}
	return []pairBackend{
		{"mock", NewCodec(md, WithSeed(3)), md, 10_000},
		{"paillier-512", NewCodec(pd, WithSeed(3)), pd, rows},
	}
}

// refMantissa is the integer the two-ciphertext layout carried for one
// value: its own EncodeAt mantissa, as a signed integer, scaled to top.
func refMantissa(t *testing.T, c *Codec, v float64, exp, top int) *big.Int {
	t.Helper()
	n, err := c.EncodeAt(v, exp)
	if err != nil {
		t.Fatal(err)
	}
	m := new(big.Int).Set(he.Signed(c.Scheme(), n.Man))
	return m.Mul(m, c.pow(top-exp))
}

// fieldsAtTop decrypts a folded sum and returns its two fields scaled to
// the top exponent.
func fieldsAtTop(t *testing.T, p PairPlan, dec he.Decryptor, e EncNum, top int) (g, h *big.Int) {
	t.Helper()
	m, err := dec.Decrypt(e.Ct)
	if err != nil {
		t.Fatal(err)
	}
	g, h = p.Split(he.Signed(p.codec.Scheme(), m))
	scale := p.codec.pow(top - e.Exp)
	return g.Mul(g, scale), h.Mul(h, scale)
}

// TestPairSumsMatchTwoCiphertextReference: folding, summing up to 10⁴
// instances at mixed exponents — naïvely and through the re-ordered
// workspaces — and splitting the decrypted sum yields exactly the two
// integer sums the two-ciphertext layout produced, also when ΣG is
// negative and the high field borrows.
func TestPairSumsMatchTwoCiphertextReference(t *testing.T) {
	for _, be := range pairBackends(t) {
		for _, bias := range []float64{-0.6, 0.6} {
			c := be.codec
			top := c.BaseExp() + c.ExpSpread() - 1
			plan, err := c.PlanPairs(be.rows, 1)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(be.rows)))
			refG, refH := new(big.Int), new(big.Int)
			naive, reord := NewSums(c, 1, false), NewSums(c, 1, true)
			exps := map[int]bool{}
			for i := 0; i < be.rows; i++ {
				g := math.Max(-1, math.Min(1, rng.Float64()*2-1+bias))
				h := rng.Float64()
				exp := c.ExpAt(4, 1, i)
				exps[exp] = true
				refG.Add(refG, refMantissa(t, c, g, exp, top))
				refH.Add(refH, refMantissa(t, c, h, exp, top))
				e, err := plan.Encrypt(g, h, exp)
				if err != nil {
					t.Fatal(err)
				}
				naive.Add(0, e)
				reord.Add(0, e)
			}
			if len(exps) != c.ExpSpread() {
				t.Fatalf("%s: %d distinct exponents drawn, want %d", be.name, len(exps), c.ExpSpread())
			}
			if (refG.Sign() < 0) != (bias < 0) {
				t.Fatalf("%s bias %g: reference ΣG = %v has the wrong sign for this case", be.name, bias, refG)
			}
			for name, sum := range map[string]EncNum{"naive": naive.Resolve(0, top, new(int64)), "re-ordered": reord.Resolve(0, top, new(int64))} {
				g, h := fieldsAtTop(t, plan, be.dec, sum, top)
				if g.Cmp(refG) != 0 || h.Cmp(refH) != 0 {
					t.Errorf("%s %s bias %g: folded (ΣG, ΣH) = (%v, %v), reference (%v, %v)", be.name, name, bias, g, h, refG, refH)
				}
			}
		}
	}
}

// TestPairFieldLimits: a session whose every instance sits at the
// per-instance limit fills both fields to just under 2^(W−1) and still
// decodes exactly — ΣH never reaches the g field, −ΣG never wraps — while
// one step beyond the limit is refused with the typed error.
func TestPairFieldLimits(t *testing.T) {
	for _, be := range pairBackends(t) {
		const rows = 64
		c := be.codec
		top := c.BaseExp() + c.ExpSpread() - 1
		plan, err := c.PlanPairs(rows, 1)
		if err != nil {
			t.Fatal(err)
		}
		// The largest float whose top-exponent mantissa is within the limit.
		lim, _ := new(big.Float).SetInt(plan.limit).Float64()
		vmax := math.Nextafter(lim/math.Pow(float64(c.Base()), float64(top)), 0)
		var sum EncNum
		for i := 0; i < rows; i++ {
			e, err := plan.Encrypt(-vmax, vmax, top)
			if err != nil {
				t.Fatalf("%s: pair at the limit refused: %v", be.name, err)
			}
			if i == 0 {
				sum = e
			} else {
				sum = c.AddEnc(sum, e)
			}
		}
		want := refMantissa(t, c, vmax, top, top)
		want.Mul(want, big.NewInt(rows))
		g, h := fieldsAtTop(t, plan, be.dec, sum, top)
		if h.Cmp(want) != 0 || g.Cmp(new(big.Int).Neg(want)) != 0 {
			t.Errorf("%s: fields at the limit = (%v, %v), want (−%v, %v)", be.name, g, h, want, want)
		}
		if half := new(big.Int).Lsh(big.NewInt(1), uint(plan.W-1)); h.Cmp(half) >= 0 || h.BitLen() < plan.W-2 {
			t.Errorf("%s: ΣH = %v is not just under 2^%d", be.name, h, plan.W-1)
		}
		for name, gh := range map[string][2]float64{"g": {-2.5 * vmax, 0}, "h": {0, 2.5 * vmax}} {
			if _, err := plan.Encode(gh[0], gh[1], top); !errors.Is(err, ErrPairRange) {
				t.Errorf("%s: %s beyond its field: %v, want ErrPairRange", be.name, name, err)
			}
		}
	}
}

func TestPairEncodeRejects(t *testing.T) {
	c, _ := mockCodec()
	plan, err := c.PlanPairs(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, gh := range map[string][2]float64{
		"NaN g": {math.NaN(), 0}, "NaN h": {0, math.NaN()}, "+Inf g": {math.Inf(1), 0},
		"-Inf g": {math.Inf(-1), 0}, "Inf h": {0, math.Inf(1)}, "negative h": {0, -1e-12},
	} {
		if _, err := plan.Encode(gh[0], gh[1], 8); !errors.Is(err, ErrPairRange) {
			t.Errorf("%s: %v, want ErrPairRange", name, err)
		}
	}
	for _, exp := range []int{7, 12} {
		if _, err := plan.Encode(0.1, 0.1, exp); err == nil {
			t.Errorf("exponent %d outside [8,11] accepted", exp)
		}
	}
	if _, err := plan.Encode(-1, 0, 11); err != nil {
		t.Errorf("h = 0 refused: %v", err)
	}
}

func TestPlanPairs(t *testing.T) {
	c := NewCodec(he.NewMock(2048))
	// The benchmark's rows-dominant shape: ceil(log2(2000·16^11)) + 2.
	if plan, err := c.PlanPairs(2000, 1); err != nil || plan.W != 57 {
		t.Errorf("PlanPairs(2000, 1) = W %d, %v; want 57", plan.W, err)
	}
	for _, bad := range []struct {
		rows  int
		bound float64
	}{{0, 1}, {10, 0}, {10, -1}, {10, math.NaN()}, {10, math.Inf(1)}} {
		if _, err := c.PlanPairs(bad.rows, bad.bound); err == nil {
			t.Errorf("PlanPairs(%d, %v) accepted", bad.rows, bad.bound)
		}
	}
	if _, err := NewCodec(he.NewMock(64)).PlanPairs(1000, 1); err == nil {
		t.Error("two 56-bit fields accepted in a 64-bit plaintext space")
	}
}

// TestPairScaleAndSubtract: exponent scaling multiplies both fields by
// the same B^k, and parent − child — taken the way Party B derives a
// sibling, on the decrypted folded sums aligned to the higher exponent —
// yields the sibling's exact sums even when the child sits at the higher
// exponent and the sibling's ΣG is negative.
func TestPairScaleAndSubtract(t *testing.T) {
	for _, be := range pairBackends(t) {
		c := be.codec
		top := c.BaseExp() + c.ExpSpread() - 1
		plan, err := c.PlanPairs(100, 1)
		if err != nil {
			t.Fatal(err)
		}
		e, err := plan.Encrypt(-0.375, 0.125, 8)
		if err != nil {
			t.Fatal(err)
		}
		g, h, err := plan.Decrypt(be.dec, c.ScaleEnc(e, top))
		if err != nil || g != -0.375 || h != 0.125 {
			t.Errorf("%s: scaled pair decodes to (%g, %g), %v", be.name, g, h, err)
		}

		// parent = {a, b, s} at low exponents, child = {a, b} scaled to top.
		a, _ := plan.Encrypt(0.75, 0.25, 9)
		b, _ := plan.Encrypt(0.5, 0.0625, 8)
		s, _ := plan.Encrypt(-0.875, 0.5, 8)
		parent := c.AddEnc(c.AddEnc(a, b), s)
		child := c.ScaleEnc(c.AddEnc(a, b), top)
		plain := func(e EncNum) *big.Int {
			m, err := be.dec.Decrypt(e.Ct)
			if err != nil {
				t.Fatal(err)
			}
			return he.Signed(c.Scheme(), m)
		}
		sib := new(big.Int).Mul(plain(parent), c.pow(top-parent.Exp))
		sib.Sub(sib, plain(child))
		if g, h := plan.Decode(sib, top); g != -0.875 || h != 0.5 {
			t.Errorf("%s: parent − child decodes to (%g, %g); want (−0.875, 0.5)", be.name, g, h)
		}
	}
}

// TestPairPackedPrefixes packs shifted prefix sums of folded bins into
// 2W-bit slots — only the g field needs the shift — and recovers every
// bin's two sums from the differences of the unpacked slots.
func TestPairPackedPrefixes(t *testing.T) {
	for _, be := range pairBackends(t) {
		c := be.codec
		top := c.BaseExp() + c.ExpSpread() - 1
		plan, err := c.PlanPairs(64, 1)
		if err != nil {
			t.Fatal(err)
		}
		bits := 2 * plan.W
		nbins := PackCapacity(c.Scheme(), bits)
		if nbins < 3 {
			t.Fatalf("%s: only %d slots of %d bits", be.name, nbins, bits)
		}
		shift := new(big.Int).Lsh(big.NewInt(1), uint(bits-1))
		run, err := c.Scheme().Encrypt(shift)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		wantG, wantH := make([]*big.Int, nbins), make([]*big.Int, nbins)
		prefixes := make([]he.Ciphertext, nbins)
		for k := range prefixes {
			g, h := rng.Float64()*2-1, rng.Float64()
			if k%3 == 0 {
				g = -math.Abs(g) // runs of negative prefixes
			}
			wantG[k], wantH[k] = refMantissa(t, c, g, top, top), refMantissa(t, c, h, top, top)
			e, err := plan.Encrypt(g, h, top)
			if err != nil {
				t.Fatal(err)
			}
			run = c.Scheme().Add(run, e.Ct)
			prefixes[k] = run
		}
		packed, err := c.Pack(prefixes, bits)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := be.dec.Decrypt(packed)
		if err != nil {
			t.Fatal(err)
		}
		prev := shift
		for k, slot := range Unpack(plain, bits, nbins) {
			g, h := plan.Split(new(big.Int).Sub(slot, prev))
			if g.Cmp(wantG[k]) != 0 || h.Cmp(wantH[k]) != 0 {
				t.Errorf("%s bin %d: unpacked (%v, %v), want (%v, %v)", be.name, k, g, h, wantG[k], wantH[k])
			}
			prev = slot
		}
	}
}

// TestExpAtIsPositional: the draw is a pure function of (seed, tree,
// class, instance) — identical from any number of goroutines in any
// order, different across seeds and positions, covering the whole spread.
func TestExpAtIsPositional(t *testing.T) {
	c, _ := mockCodec(WithExponents(8, 4), WithSeed(42))
	const n = 4096
	want := make([]int, n)
	seen := map[int]int{}
	for i := range want {
		want[i] = c.ExpAt(3, 1, i)
		seen[want[i]]++
	}
	for e := 8; e < 12; e++ {
		if seen[e] < n/8 {
			t.Errorf("exponent %d drawn %d of %d times", e, seen[e], n)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				i := (k*7 + w*131) % n
				if got := c.ExpAt(3, 1, i); got != want[i] {
					t.Errorf("ExpAt(3,1,%d) = %d from goroutine %d, want %d", i, got, w, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()

	other, _ := mockCodec(WithExponents(8, 4), WithSeed(43))
	diff := map[string]int{}
	for i := 0; i < n; i++ {
		for name, e := range map[string]int{"seed": other.ExpAt(3, 1, i), "tree": c.ExpAt(4, 1, i), "class": c.ExpAt(3, 2, i)} {
			if e != want[i] {
				diff[name]++
			}
		}
	}
	for _, name := range []string{"seed", "tree", "class"} {
		if diff[name] < n/2 {
			t.Errorf("changing the %s moved only %d of %d draws", name, diff[name], n)
		}
	}

	// RandExp is the same function walked along the codec's own sequence.
	a, _ := mockCodec(WithExponents(8, 4), WithSeed(9))
	b, _ := mockCodec(WithExponents(8, 4), WithSeed(9))
	for i := 0; i < 100; i++ {
		if x, y := a.RandExp(), b.RandExp(); x != y {
			t.Fatalf("draw %d: equal-seed codecs drew %d and %d", i, x, y)
		}
	}
}
