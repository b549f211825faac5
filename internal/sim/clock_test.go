package sim

import (
	"sync"
	"testing"
	"time"
)

// TestVirtualClockStandaloneSleep: outside a scheduler, Sleep parks on a
// channel that Advance releases — no wall time passes.
func TestVirtualClockStandaloneSleep(t *testing.T) {
	c := NewVirtualClock(simEpoch)
	var wg sync.WaitGroup
	woke := make(chan time.Time, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Sleep(50 * time.Millisecond)
		woke <- c.Now()
	}()
	// Let the sleeper park, then drive it with virtual time only.
	time.Sleep(10 * time.Millisecond)
	c.Advance(49 * time.Millisecond)
	select {
	case <-woke:
		t.Fatal("sleeper woke before its deadline")
	case <-time.After(20 * time.Millisecond):
	}
	c.Advance(time.Millisecond)
	wg.Wait()
	at := <-woke
	if got := at.Sub(simEpoch); got != 50*time.Millisecond {
		t.Fatalf("woke at +%v, want +50ms", got)
	}
}

// TestVirtualClockNeverRewinds: advanceTo with an earlier target must not
// move Now backward (timer steps can fire out of deadline order when the
// schedule chooses them adversarially).
func TestVirtualClockNeverRewinds(t *testing.T) {
	c := NewVirtualClock(simEpoch)
	c.Advance(100 * time.Millisecond)
	c.advanceTo(simEpoch.Add(10 * time.Millisecond))
	if got := c.Now().Sub(simEpoch); got != 100*time.Millisecond {
		t.Fatalf("clock rewound to +%v", got)
	}
}
