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
