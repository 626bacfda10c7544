package fixedpoint

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"vf2boost/internal/he"
)

// sumsBackend is one scheme TestSums accumulates over: codec runs over
// the accumulating side's public scheme, which receives every ciphertext
// through Unmarshal as a passive party does, and dec decrypts. per is how
// many values each occupied cell gets.
type sumsBackend struct {
	name  string
	codec *Codec
	dec   he.Decryptor
	per   int
}

func sumsBackends(t *testing.T) []sumsBackend {
	t.Helper()
	md := he.NewMock(512)
	p512 := he.NewPaillierFromKey(testKey(t, 512), 0)
	// At 2048 bits the public scheme unmarshals into the n-adic digit
	// form where the CPU has the Montgomery kernel, as Party A does; the
	// owner's fast obfuscation keeps the encryptions cheap.
	p2048 := he.NewPaillierFromKey(testKey(t, 2048), 0)
	if err := p2048.EnableFastObfuscation(); err != nil {
		t.Fatal(err)
	}
	return []sumsBackend{
		{"mock", NewCodec(md, WithSeed(4)), md, 24},
		{"paillier-512", NewCodec(p512.PublicScheme(), WithSeed(4)), p512, 24},
		{"paillier-2048", NewCodec(p2048.PublicScheme(), WithSeed(4)), p2048, 8},
	}
}

// TestSums runs the Section 5.1 accumulator, naive and re-ordered, over
// every backend. Cells 0 and 4 take values at every exponent, cell 1 only
// below the top one (so Resolve must scale its fold up), cell 3 only at
// the lowest, and cell 2 none. Every resolved cell must decrypt to its
// exact integer sum, and a sum merged from two shards to the single
// pass's — the second shard alone holds the top exponent's row and cell
// 3, so Merge takes rows and cells over; the empty cell stays nil.
// Re-ordered additions never scale and Resolve scales at most E−1 times
// per cell, while naive additions scale more than E times. The single
// pass resolves its cells concurrently, which -race checks.
func TestSums(t *testing.T) {
	const cells, empty = 5, 2
	for _, be := range sumsBackends(t) {
		c, st := be.codec, be.codec.Stats()
		top := c.BaseExp() + c.ExpSpread() - 1
		type input struct {
			cell, shard int
			e           EncNum
		}
		var inputs []input
		want := make([]*big.Int, cells)
		rng := rand.New(rand.NewSource(6))
		for k := 0; k < be.per*(cells-1); k++ {
			cell := k % (cells - 1)
			if cell >= empty {
				cell++
			}
			exp := c.ExpAt(0, cell, k)
			switch cell {
			case 1:
				exp = c.BaseExp() + k%(c.ExpSpread()-1)
			case 3:
				exp = c.BaseExp()
			}
			shard := k % 2
			if exp == top || cell == 3 {
				shard = 1
			}
			n, err := c.EncodeAt(rng.Float64()*2-1, exp)
			if err != nil {
				t.Fatal(err)
			}
			ct, err := be.dec.Encrypt(n.Man)
			if err != nil {
				t.Fatal(err)
			}
			wire, err := c.Scheme().Unmarshal(be.dec.Marshal(ct))
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, input{cell, shard, EncNum{Exp: n.Exp, Ct: wire}})
			if want[cell] == nil {
				want[cell] = new(big.Int)
			}
			m := new(big.Int).Mul(he.Signed(c.Scheme(), n.Man), c.pow(top-n.Exp))
			want[cell].Add(want[cell], m)
		}
		check := func(t *testing.T, what string, i int, got EncNum) {
			t.Helper()
			switch {
			case want[i] == nil && got.Ct != nil:
				t.Errorf("%s cell %d: empty cell resolved to a ciphertext", what, i)
			case want[i] == nil:
			case got.Ct == nil || got.Exp != top:
				t.Errorf("%s cell %d: resolved to %v at exponent %d, want a sum at %d", what, i, got.Ct, got.Exp, top)
			default:
				m, err := be.dec.Decrypt(got.Ct)
				if err != nil {
					t.Fatal(err)
				}
				if s := he.Signed(c.Scheme(), m); s.Cmp(want[i]) != 0 {
					t.Errorf("%s cell %d: decrypts to %v, want %v", what, i, s, want[i])
				}
			}
		}
		for _, reordered := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/reordered=%v", be.name, reordered), func(t *testing.T) {
				single := NewSums(c, cells, reordered)
				before := st.Scalings()
				for _, in := range inputs {
					single.Add(in.cell, in.e)
				}
				switch scaled := st.Scalings() - before; {
				case reordered && scaled != 0:
					t.Errorf("re-ordered additions scaled %d times, want 0", scaled)
				case !reordered && scaled <= int64(c.ExpSpread()):
					t.Errorf("naive additions scaled only %d times; exponents not mixed", scaled)
				}
				shards := []*Sums{NewSums(c, cells, reordered), NewSums(c, cells, reordered)}
				for _, in := range inputs {
					shards[in.shard].Add(in.cell, in.e)
				}
				shards[0].Merge(shards[1])

				got := make([]EncNum, cells)
				var wg sync.WaitGroup
				for i := range got {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got[i] = single.Resolve(i, top, new(int64))
					}()
				}
				wg.Wait()
				for i := range got {
					check(t, "single pass", i, got[i])
					before := st.Scalings()
					merged := shards[0].Resolve(i, top, new(int64))
					if scaled := st.Scalings() - before; reordered && scaled > int64(c.ExpSpread()-1) {
						t.Errorf("cell %d: re-ordered Resolve scaled %d times, want ≤ %d", i, scaled, c.ExpSpread()-1)
					}
					check(t, "merged shards", i, merged)
				}
			})
		}
	}
}

// TestReorderedSumMatchesNaive sums 200 mixed-exponent values into one
// cell under both strategies: each must decode to the float sum, the
// re-ordered Sums with at most E−1 scalings in all, the naive one with
// more than E.
func TestReorderedSumMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	values := make([]float64, 200)
	want := 0.0
	for i := range values {
		values[i] = rng.Float64()*2 - 1
		want += values[i]
	}
	for _, reordered := range []bool{false, true} {
		c, m := mockCodec(WithSeed(7))
		s := NewSums(c, 1, reordered)
		for _, v := range values {
			e, err := c.EncryptValue(v)
			if err != nil {
				t.Fatal(err)
			}
			s.Add(0, e)
		}
		sum := s.Resolve(0, c.BaseExp(), new(int64))
		man, err := m.Decrypt(sum.Ct)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Decode(Num{Exp: sum.Exp, Man: man}); math.Abs(got-want) > 1e-5 {
			t.Errorf("reordered=%v: sum decodes to %g, want %g", reordered, got, want)
		}
		scaled := c.Stats().Scalings()
		switch {
		case reordered && scaled > int64(c.ExpSpread()-1):
			t.Errorf("re-ordered accumulation used %d scalings, want <= %d", scaled, c.ExpSpread()-1)
		case !reordered && scaled <= int64(c.ExpSpread()):
			t.Errorf("naive accumulation used only %d scalings; exponents not mixed", scaled)
		}
	}
}

// TestReorderedSumEmptyAndReset checks the empty and fresh states under
// both strategies: an empty cell resolves to nil, one Add resolves to that
// value, and merging an empty Sums either way leaves the value intact.
// A new Sums is the reset: Resolve consumes its cell.
func TestReorderedSumEmptyAndReset(t *testing.T) {
	for _, reordered := range []bool{false, true} {
		c, m := mockCodec()
		if got := NewSums(c, 2, reordered).Resolve(0, c.BaseExp(), new(int64)); got.Ct != nil {
			t.Errorf("reordered=%v: empty cell resolved to a ciphertext", reordered)
		}
		one := func() *Sums {
			s := NewSums(c, 2, reordered)
			e, err := c.EncryptValue(1.0)
			if err != nil {
				t.Fatal(err)
			}
			s.Add(1, e)
			return s
		}
		into := one()
		into.Merge(NewSums(c, 2, reordered))
		taken := NewSums(c, 2, reordered)
		taken.Merge(one())
		for what, s := range map[string]*Sums{"fresh": one(), "merged empty": into, "merged into empty": taken} {
			if got := s.Resolve(0, c.BaseExp(), new(int64)); got.Ct != nil {
				t.Errorf("reordered=%v %s: untouched cell resolved to a ciphertext", reordered, what)
			}
			sum := s.Resolve(1, c.BaseExp(), new(int64))
			if sum.Ct == nil {
				t.Fatalf("reordered=%v %s: occupied cell resolved to nil", reordered, what)
			}
			man, err := m.Decrypt(sum.Ct)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.Decode(Num{Exp: sum.Exp, Man: man}); math.Abs(got-1) > 1e-9 {
				t.Errorf("reordered=%v %s: cell decodes to %g, want 1", reordered, what, got)
			}
		}
	}
}
