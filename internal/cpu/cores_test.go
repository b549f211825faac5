package cpu

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunExecutes(t *testing.T) {
	c := New(2)
	ran := false
	if err := c.Run(context.Background(), func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("task did not run")
	}
}

func TestConcurrencyBoundedByCores(t *testing.T) {
	const cores = 3
	c := New(cores)
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Run(context.Background(), func() {
				n := cur.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				cur.Add(-1)
			})
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > cores {
		t.Errorf("peak concurrency %d exceeded core bound %d", p, cores)
	}
	if p := peak.Load(); p < 2 {
		t.Errorf("peak concurrency %d suspiciously low; pool not parallel", p)
	}
}

func TestRunContextCancelledWhileQueued(t *testing.T) {
	c := New(1)
	release := make(chan struct{})
	go c.Run(context.Background(), func() { <-release })
	time.Sleep(time.Millisecond) // let the blocker take the core

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := c.Run(ctx, func() { t.Error("should not run") })
	if err != context.DeadlineExceeded {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
	close(release)
}

func TestStopRejectsNewWork(t *testing.T) {
	c := New(1)
	c.Stop()
	if err := c.Run(context.Background(), func() {}); err != ErrStopped {
		t.Errorf("Run after stop = %v, want ErrStopped", err)
	}
}

func TestBurnDuration(t *testing.T) {
	start := time.Now()
	Burn(2 * time.Millisecond)
	if el := time.Since(start); el < 2*time.Millisecond {
		t.Errorf("Burn(2ms) returned after %v", el)
	}
	start = time.Now()
	Burn(200 * time.Microsecond) // spin path
	if el := time.Since(start); el < 200*time.Microsecond {
		t.Errorf("Burn(200us) returned after %v", el)
	}
	Burn(0)  // no-op
	Burn(-1) // no-op
}

func TestNewPanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0)
}
