package telemetry

import (
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	c := NewCounter()
	if c.Value() != 0 {
		t.Fatalf("fresh counter = %d", c.Value())
	}
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Errorf("counter = %d, want 42", c.Value())
	}
}

func TestCounterConcurrentAdds(t *testing.T) {
	c := NewCounter()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
}
