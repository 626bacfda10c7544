package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Stats dissects where a training session spends time, mirroring the
// Gantt-chart lanes of Figures 4 and 5: encryption and decryption on Party
// B, histogram construction on the passive parties, cipher transfer, and
// the optimistic-splitting outcomes. All fields are safe for concurrent
// update.
type Stats struct {
	encryptTime   atomic.Int64 // ns Party B spent encrypting gradients
	decryptTime   atomic.Int64 // ns Party B spent decrypting histograms
	findSplitTime atomic.Int64 // ns Party B spent on split finding
	buildHistTime atomic.Int64 // ns passive parties spent accumulating histograms
	packTime      atomic.Int64 // ns passive parties spent finalizing and packing them
	packedSlots   atomic.Int64 // histogram slots the passive parties packed ...
	packedCts     atomic.Int64 // ... into this many ciphertexts
	bIdleTime     atomic.Int64 // ns Party B spent waiting for passive frames
	aIdleTime     atomic.Int64 // ns passive parties spent waiting

	splitsByB     atomic.Int64
	splitsByA     atomic.Int64
	dirtyNodes    atomic.Int64
	abortedTasks  atomic.Int64
	treesFinished atomic.Int64
}

func addDur(a *atomic.Int64, d time.Duration) { a.Add(int64(d)) }

// EncryptTime is Party B's cumulative gradient-encryption time.
func (s *Stats) EncryptTime() time.Duration { return time.Duration(s.encryptTime.Load()) }

// DecryptTime is Party B's cumulative histogram-decryption time.
func (s *Stats) DecryptTime() time.Duration { return time.Duration(s.decryptTime.Load()) }

// FindSplitTime is Party B's cumulative split-finding time.
func (s *Stats) FindSplitTime() time.Duration { return time.Duration(s.findSplitTime.Load()) }

// BuildHistTime is the passive parties' cumulative histogram-build time.
func (s *Stats) BuildHistTime() time.Duration { return time.Duration(s.buildHistTime.Load()) }

// PackTime is the passive parties' cumulative wall time finalizing and
// packing accumulated histograms for the wire (per-bin exponent merge,
// shifted prefix sums, Codec.Pack), summed over nodes.
func (s *Stats) PackTime() time.Duration { return time.Duration(s.packTime.Load()) }

// PackFill is the mean number of histogram slots per packed ciphertext
// the passive parties shipped (0 when nothing was packed); the plaintext
// holds (S−1)/2W of them.
func (s *Stats) PackFill() float64 {
	if cts := s.packedCts.Load(); cts > 0 {
		return float64(s.packedSlots.Load()) / float64(cts)
	}
	return 0
}

// BIdleTime is Party B's cumulative time blocked on the passive parties'
// frames: their setup answers, histograms and placements.
func (s *Stats) BIdleTime() time.Duration { return time.Duration(s.bIdleTime.Load()) }

// AIdleTime is the passive parties' cumulative time blocked on messages.
func (s *Stats) AIdleTime() time.Duration { return time.Duration(s.aIdleTime.Load()) }

// SplitsByB counts confirmed splits owned by Party B.
func (s *Stats) SplitsByB() int64 { return s.splitsByB.Load() }

// SplitsByA counts confirmed splits owned by passive parties.
func (s *Stats) SplitsByA() int64 { return s.splitsByA.Load() }

// DirtyNodes counts optimistic splits that were rolled back and re-done.
func (s *Stats) DirtyNodes() int64 { return s.dirtyNodes.Load() }

// AbortedTasks counts passive histogram sub-tasks aborted by dirty nodes.
func (s *Stats) AbortedTasks() int64 { return s.abortedTasks.Load() }

// TreesFinished counts completed boosting rounds.
func (s *Stats) TreesFinished() int64 { return s.treesFinished.Load() }

// RatioSplitsB returns the fraction of confirmed splits owned by Party B
// (the "Ratio of Splits in Party B" column of Table 2).
func (s *Stats) RatioSplitsB() float64 {
	b, a := s.SplitsByB(), s.SplitsByA()
	if a+b == 0 {
		return 0
	}
	return float64(b) / float64(a+b)
}

// String renders the phase breakdown in the spirit of the paper's Gantt
// lanes (Figures 4 and 5): cryptography phases, idle time, and the
// optimistic-protocol outcomes.
func (s *Stats) String() string {
	var b strings.Builder
	r := func(d time.Duration) string { return d.Round(time.Millisecond).String() }
	fmt.Fprintf(&b, "phase breakdown:\n")
	fmt.Fprintf(&b, "  B: encrypt %-10s decrypt %-10s find-split %-10s idle %s\n",
		r(s.EncryptTime()), r(s.DecryptTime()), r(s.FindSplitTime()), r(s.BIdleTime()))
	fmt.Fprintf(&b, "  A: build-hist %-10s pack %-10s (%.1f slots/ct) idle %s\n",
		r(s.BuildHistTime()), r(s.PackTime()), s.PackFill(), r(s.AIdleTime()))
	fmt.Fprintf(&b, "  splits: A %d / B %d (B ratio %.1f%%); dirty %d; aborted tasks %d; trees %d",
		s.SplitsByA(), s.SplitsByB(), 100*s.RatioSplitsB(),
		s.DirtyNodes(), s.AbortedTasks(), s.TreesFinished())
	return b.String()
}
