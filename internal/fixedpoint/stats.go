package fixedpoint

import "sync/atomic"

// Stats counts cryptography operations so experiments can dissect where
// time goes (the paper's cost model: T_ENC, T_DEC, T_HADD, T_SMUL) and
// verify that the re-ordered accumulation really eliminates scalings.
type Stats struct {
	encryptions int64
	decryptions int64
	hadds       int64
	smuls       int64
	scalings    int64
}

func (s *Stats) addEnc(n int64)   { atomic.AddInt64(&s.encryptions, n) }
func (s *Stats) addDec(n int64)   { atomic.AddInt64(&s.decryptions, n) }
func (s *Stats) addHAdd(n int64)  { atomic.AddInt64(&s.hadds, n) }
func (s *Stats) addSMul(n int64)  { atomic.AddInt64(&s.smuls, n) }
func (s *Stats) addScale(n int64) { atomic.AddInt64(&s.scalings, n) }

// Encryptions returns the number of Encrypt calls.
func (s *Stats) Encryptions() int64 { return atomic.LoadInt64(&s.encryptions) }

// Decryptions returns the number of Decrypt calls.
func (s *Stats) Decryptions() int64 { return atomic.LoadInt64(&s.decryptions) }

// HAdds returns the number of homomorphic additions.
func (s *Stats) HAdds() int64 { return atomic.LoadInt64(&s.hadds) }

// SMuls returns the number of scalar multiplications (including scalings).
func (s *Stats) SMuls() int64 { return atomic.LoadInt64(&s.smuls) }

// Scalings returns the number of exponent-alignment scalings, the
// operations the re-ordered accumulation avoids.
func (s *Stats) Scalings() int64 { return atomic.LoadInt64(&s.scalings) }

// AddHAdds counts externally-performed homomorphic additions (callers
// that drive the scheme directly, such as the re-ordered histogram
// workspaces, report through these).
func (s *Stats) AddHAdds(n int64) { s.addHAdd(n) }

// AddDecryptions counts externally-performed decryptions.
func (s *Stats) AddDecryptions(n int64) { s.addDec(n) }

// Add counts every operation o has counted.
func (s *Stats) Add(o *Stats) {
	s.addEnc(o.Encryptions())
	s.addDec(o.Decryptions())
	s.addHAdd(o.HAdds())
	s.addSMul(o.SMuls())
	s.addScale(o.Scalings())
}

// Reset zeroes all counters.
func (s *Stats) Reset() {
	atomic.StoreInt64(&s.encryptions, 0)
	atomic.StoreInt64(&s.decryptions, 0)
	atomic.StoreInt64(&s.hadds, 0)
	atomic.StoreInt64(&s.smuls, 0)
	atomic.StoreInt64(&s.scalings, 0)
}
