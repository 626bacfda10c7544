package fixedpoint

import "vf2boost/internal/he"

// Sums is a vector of encrypted sums, one per cell, under one of the two
// accumulation strategies Section 5.1 compares:
//
//   - naive: one accumulator per cell; a ciphertext whose exponent differs
//     from the accumulator's costs a scaling (SMul) on that addition;
//   - re-ordered: one workspace row per exponent value, so every addition
//     is a plain HAdd, and Resolve folds a cell's E rows with at most E-1
//     scalings.
//
// Every Add is one homomorphic addition, which Sums does not count: the
// caller reports its additions once per sweep, since one shared atomic per
// addition would be millions of contended writes per tree. Add and Merge are
// not safe for concurrent use — shard the additions and Merge the shards —
// while Resolve on distinct cells is.
type Sums struct {
	codec *Codec
	cells int
	// naive holds the naive accumulators (nil Ct = empty cell).
	naive []EncNum
	// rows are the re-ordered workspaces, indexed [exp-baseExp][cell]
	// and allocated on a row's first addition; nil under naive.
	rows [][]he.Ciphertext
}

// NewSums allocates cells empty sums over the codec, re-ordered or naive.
func NewSums(c *Codec, cells int, reordered bool) *Sums {
	s := &Sums{codec: c, cells: cells}
	if reordered {
		s.rows = make([][]he.Ciphertext, c.expSpread)
	} else {
		s.naive = make([]EncNum, cells)
	}
	return s
}

// Add accumulates e into cell i. Under re-ordering e.Exp must lie in the
// codec's range: it indexes the workspace rows.
func (s *Sums) Add(i int, e EncNum) {
	sc := s.codec.scheme
	if s.rows == nil {
		if s.naive[i].Ct == nil {
			s.naive[i] = EncNum{Exp: e.Exp, Ct: sc.EncryptZero()}
		}
		s.codec.addInto(&s.naive[i], e)
		return
	}
	r := e.Exp - s.codec.baseExp
	if s.rows[r] == nil {
		s.rows[r] = make([]he.Ciphertext, s.cells)
	}
	row := s.rows[r]
	if row[i] == nil {
		row[i] = sc.EncryptZero()
	}
	row[i] = sc.AddInto(row[i], e.Ct)
}

// Merge folds o (same codec, size and strategy) into s and counts its
// additions. Re-ordered, a row or cell s lacks is taken over, not copied:
// o must not be used afterwards.
func (s *Sums) Merge(o *Sums) {
	var hadds int64
	defer func() { s.codec.stats.addHAdd(hadds) }()
	if s.rows == nil {
		for i, v := range o.naive {
			if v.Ct != nil {
				s.Add(i, v)
				hadds++
			}
		}
		return
	}
	for r, src := range o.rows {
		dst := s.rows[r]
		if dst == nil {
			s.rows[r] = src
			continue
		}
		for i, ct := range src {
			switch {
			case ct == nil:
			case dst[i] == nil:
				dst[i] = ct
			default:
				dst[i] = s.codec.scheme.AddInto(dst[i], ct)
				hadds++
			}
		}
	}
}

// Resolve returns cell i as one ciphertext at exponent toExp or, when the
// cell holds a higher exponent, at that one; an empty cell stays nil. The
// workspace rows fold from the lowest up — scale the running sum to the
// next occupied row, add the row — so every occupied row below the result
// costs one scaling by a small scalar. Resolving consumes the cell. The
// additions made are added to *hadds for the caller to report.
func (s *Sums) Resolve(i, toExp int, hadds *int64) EncNum {
	var acc EncNum
	if s.rows == nil {
		acc = s.naive[i]
	}
	for r, row := range s.rows {
		if row == nil || row[i] == nil {
			continue
		}
		cur := EncNum{Exp: s.codec.baseExp + r, Ct: row[i]}
		if acc.Ct != nil {
			cur.Ct = s.codec.scheme.AddInto(s.codec.ScaleEnc(acc, cur.Exp).Ct, cur.Ct)
			*hadds++
		}
		acc = cur
	}
	if acc.Ct != nil && acc.Exp < toExp {
		acc = s.codec.ScaleEnc(acc, toExp)
	}
	return acc
}
