package clock

import (
	"math/rand"
	"testing"
	"time"
)

// TestBackoffSchedule: the waits double from FirstWait up to the cap,
// each within ±20 % of its nominal value, and Reset starts them over.
func TestBackoffSchedule(t *testing.T) {
	b := NewBackoff(Wall{}, rand.New(rand.NewSource(1)))
	check := func(nominal []time.Duration) {
		t.Helper()
		for i, n := range nominal {
			if d := b.Next(); d < n*8/10 || d > n*12/10 {
				t.Errorf("wait %d = %v, want %v ± 20 %%", i, d, n)
			}
		}
	}
	ms := time.Millisecond
	check([]time.Duration{200 * ms, 400 * ms, 800 * ms, 1600 * ms, 3200 * ms, 5 * time.Second, 5 * time.Second})
	b.Reset()
	check([]time.Duration{200 * ms, 400 * ms})
}

// TestBackoffGivesUp: Fail waits out the schedule on the clock and gives
// up on the MaxFails-th failure in a row; Wait breaks the row without
// resetting the wait.
func TestBackoffGivesUp(t *testing.T) {
	fk := NewFake()
	b := NewBackoff(fk, rand.New(rand.NewSource(2)))
	fails := 0
	fk.Drive(func() {
		for b.Fail(nil) {
			fails++
		}
	})
	if fails != MaxFails-1 {
		t.Errorf("Fail let %d failures retry, want %d", fails, MaxFails-1)
	}
	fk.Drive(func() {
		b.Wait(nil)
		if !b.Fail(nil) {
			t.Error("Fail gave up right after Wait ended the row of failures")
		}
	})
	if d := b.Next(); d < 4*time.Second {
		t.Errorf("Wait reset the schedule: next wait %v, want about 5 s", d)
	}
}

// TestSleepReleasedByDone: a closed done ends a wait the clock would
// never end on its own.
func TestSleepReleasedByDone(t *testing.T) {
	done := make(chan struct{})
	close(done)
	if Sleep(NewFake(), time.Hour, done) {
		t.Error("Sleep waited out an hour of a stopped clock")
	}
	if !Sleep(Wall{}, time.Millisecond, nil) {
		t.Error("Sleep with a nil done did not wait out its time")
	}
}
