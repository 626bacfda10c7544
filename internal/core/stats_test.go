package core

import (
	"strings"
	"testing"
	"time"
)

func TestStatsString(t *testing.T) {
	s := &Stats{}
	addDur(&s.encryptTime, 1500*time.Millisecond)
	addDur(&s.buildHistTime, 2*time.Second)
	addDur(&s.packTime, 250*time.Millisecond)
	s.splitsByA.Add(3)
	s.splitsByB.Add(7)
	s.dirtyNodes.Add(2)
	out := s.String()
	for _, want := range []string{"encrypt 1.5s", "build-hist 2s", "pack 250ms", "A 3 / B 7", "70.0%", "dirty 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("Stats.String missing %q in:\n%s", want, out)
		}
	}
}

func TestStatsZeroValues(t *testing.T) {
	s := &Stats{}
	if s.RatioSplitsB() != 0 {
		t.Error("zero stats ratio must be 0")
	}
	if out := s.String(); out == "" {
		t.Error("empty String output")
	}
}

// TestBIdleWithinWallTime: Party B's decryption units wait for their
// ciphertext frames concurrently over a slow link; B's idle time counts a
// stretch in which several wait once, so it stays within the session's
// wall time.
func TestBIdleWithinWallTime(t *testing.T) {
	_, parts := twoPartyData(t, 200, 6, 3, 1, true, 5)
	cfg := quickConfig(SchemeMock)
	cfg.Workers, cfg.HistogramPacking, cfg.Trees, cfg.MaxDepth = 4, false, 1, 3
	start := time.Now()
	_, s := trainFed(t, parts, cfg, WithWAN(0.5, time.Millisecond))
	wall := time.Since(start)
	if idle := s.Stats().BIdleTime(); idle <= 0 || idle > wall {
		t.Errorf("B idle %v in a %v session", idle, wall)
	}
}
