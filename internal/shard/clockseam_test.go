package shard

import (
	"errors"
	"testing"
	"time"

	"rdx/internal/sim"
	"rdx/internal/telemetry"
)

// TestAdmissionRefillVirtualClock drives bucket refill entirely on a
// virtual clock: token arithmetic is exact because no wall time leaks in.
func TestAdmissionRefillVirtualClock(t *testing.T) {
	clk := sim.NewVirtualClock(time.Now())
	adm := NewAdmission(TenantQuota{PublishPerSec: 10, PublishBurst: 2},
		telemetry.NewRegistry()).WithClock(clk)

	// Burst depth: exactly two admits, then dry.
	for i := 0; i < 2; i++ {
		if err := adm.Admit("tn", 0); err != nil {
			t.Fatalf("admit %d within burst: %v", i, err)
		}
	}
	if err := adm.Admit("tn", 0); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-burst admit: %v, want ErrQuotaExceeded", err)
	}

	// 100ms at 10/s refills exactly one token.
	clk.Advance(100 * time.Millisecond)
	if err := adm.Admit("tn", 0); err != nil {
		t.Fatalf("admit after refill: %v", err)
	}
	if err := adm.Admit("tn", 0); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("second admit after one-token refill: %v, want ErrQuotaExceeded", err)
	}

	// A long idle period caps at burst, not rate×elapsed.
	clk.Advance(time.Hour)
	for i := 0; i < 2; i++ {
		if err := adm.Admit("tn", 0); err != nil {
			t.Fatalf("admit %d after long idle: %v", i, err)
		}
	}
	if err := adm.Admit("tn", 0); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("burst cap not enforced after idle: %v, want ErrQuotaExceeded", err)
	}

	// Refund restores a token immediately, no clock movement needed.
	adm.Refund("tn", 0)
	if err := adm.Admit("tn", 0); err != nil {
		t.Fatalf("admit after refund: %v", err)
	}
}

// TestAutoscalerCooldownVirtualClock drives tick() directly with a
// virtual clock: the cooldown window is exact clock arithmetic, so the
// second scale-in is blocked until the clock jumps past it.
func TestAutoscalerCooldownVirtualClock(t *testing.T) {
	r := NewRouter(Config{Workers: 1})
	defer r.Close()
	for id := 0; id < 3; id++ {
		r.AddShard(id, okExec(nil))
	}
	clk := sim.NewVirtualClock(time.Now())
	a := NewAutoscaler(r, AutoscalerConfig{
		Min: 1, Max: 4, LowTicks: 1,
		Interval: 100 * time.Millisecond, // cooldown defaults to 1s
		Clock:    clk,
	})
	// lastChange is the zero time, so the first action clears cooldown.
	a.tick()
	if got := len(r.Status()); got != 2 {
		t.Fatalf("after first low tick: %d shards, want 2", got)
	}
	// Inside the cooldown window nothing moves, streaks notwithstanding.
	a.tick()
	a.tick()
	if got := len(r.Status()); got != 2 {
		t.Fatalf("scale-in fired inside cooldown: %d shards", got)
	}
	clk.Advance(1100 * time.Millisecond)
	a.tick()
	if got := len(r.Status()); got != 1 {
		t.Fatalf("after cooldown lapsed: %d shards, want 1", got)
	}
	if v := a.scaleIns.Value(); v != 2 {
		t.Fatalf("scale_ins = %d, want 2", v)
	}
}

// TestAutoscalerLoopVirtualTicker proves the sampling loop itself runs on
// the clock seam: with a virtual ticker, only Advance produces ticks.
func TestAutoscalerLoopVirtualTicker(t *testing.T) {
	r := NewRouter(Config{Workers: 1})
	defer r.Close()
	r.AddShard(0, okExec(nil))
	r.AddShard(1, okExec(nil))
	clk := sim.NewVirtualClock(time.Now())
	a := NewAutoscaler(r, AutoscalerConfig{
		Min: 1, Max: 4, LowTicks: 1,
		Interval: 100 * time.Millisecond,
		Clock:    clk,
	})
	a.Start()
	defer a.Stop()
	// Advance inside the poll: the loop's ticker registers asynchronously
	// with Start, and each Advance delivers at most one (coalesced) tick.
	waitUntil(t, "autoscaler scale-in driven by virtual ticks", func() bool {
		clk.Advance(100 * time.Millisecond)
		return a.scaleIns.Value() >= 1
	})
	if got := len(r.Status()); got != 1 {
		t.Fatalf("%d shards after virtual-tick scale-in, want 1", got)
	}
}

// TestAutoscalerScaleOutHysteresis drives the scale-out half tick by tick:
// queue-wait pressure must persist HighTicks consecutive ticks before a
// shard is provisioned (one quiet tick resets the streak), the newcomer
// joins at max(ID)+1, and Max caps the fleet whatever the signal says.
func TestAutoscalerScaleOutHysteresis(t *testing.T) {
	r := NewRouter(Config{Workers: 1})
	defer r.Close()
	r.AddShard(0, okExec(nil))
	clk := sim.NewVirtualClock(time.Now())
	var provisioned []int
	a := NewAutoscaler(r, AutoscalerConfig{
		Min: 1, Max: 2, HighTicks: 2, LowTicks: 100,
		Clock: clk,
		Provision: func(id int) (Executor, error) {
			provisioned = append(provisioned, id)
			return okExec(nil), nil
		},
	})
	// A tick is high when its shard recorded new waits past HighWait.
	wait := r.Registry().Histogram("shard.0.queue.wait")
	pressured := func() {
		wait.RecordDuration(time.Second)
		a.tick()
	}
	pressured()
	a.tick() // quiet: the streak starts over
	pressured()
	if len(provisioned) != 0 {
		t.Fatalf("scaled out after a broken streak: provisioned %v", provisioned)
	}
	pressured()
	if len(provisioned) != 1 || provisioned[0] != 1 || len(r.Status()) != 2 {
		t.Fatalf("after two consecutive high ticks: provisioned %v, %d shards; want [1], 2", provisioned, len(r.Status()))
	}
	clk.Advance(time.Minute) // past any cooldown: only Max holds the line now
	pressured()
	pressured()
	if v := a.scaleOuts.Value(); v != 1 || len(r.Status()) != 2 {
		t.Fatalf("scale_outs = %d, %d shards; want 1, 2 (Max reached)", v, len(r.Status()))
	}
}
