package core

import "testing"

// TestRollbackDepthPushDeployed: a full stack drops its oldest entry in
// place — the newest RollbackDepth versions stay, in order, and the backing
// array stops growing — and a stack restored longer than the bound (a
// journal from before it) is cut down by the first push.
func TestRollbackDepthPushDeployed(t *testing.T) {
	var h []Deployed
	var full *Deployed
	for v := uint64(1); v <= 3*RollbackDepth; v++ {
		h = PushDeployed(h, Deployed{Version: v})
		if want := int(min(v, RollbackDepth)); len(h) != want {
			t.Fatalf("after %d pushes the stack holds %d entries, want %d", v, len(h), want)
		}
		for i, d := range h {
			if want := v - uint64(len(h)-1-i); d.Version != want {
				t.Fatalf("after %d pushes entry %d is v%d, want v%d", v, i, d.Version, want)
			}
		}
		if len(h) == RollbackDepth {
			if full == nil {
				full = &h[0]
			} else if full != &h[0] {
				t.Fatalf("push %d reallocated a full stack", v)
			}
		}
	}
	long := make([]Deployed, 2*RollbackDepth)
	for i := range long {
		long[i].Version = uint64(i + 1)
	}
	long = PushDeployed(long, Deployed{Version: 2*RollbackDepth + 1})
	if len(long) != RollbackDepth || long[0].Version != RollbackDepth+2 {
		t.Fatalf("over-long stack after a push: %d entries from v%d", len(long), long[0].Version)
	}
}
