package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rdx/internal/core"
	"rdx/internal/telemetry"
)

// TestRefundOnDownedShard: a tenant whose key routes to a downed shard
// keeps its quota. Every post-admit failure path refunds the admission
// charge, so retries surface ErrShardUnavailable for as long as the shard
// is down — without the refund the tenant's bucket drains and the error
// mutates into ErrQuotaExceeded, pointing the operator at the wrong
// subsystem entirely.
func TestRefundOnDownedShard(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := NewRouter(Config{Registry: reg, Workers: 1})
	defer r.Close()
	if err := r.AddShard(0, ExecFunc(func(ctx context.Context, j *Job) error {
		return fmt.Errorf("lease lost: %w", core.ErrFenced)
	})); err != nil {
		t.Fatalf("AddShard: %v", err)
	}
	r.SetQuota("t", TenantQuota{PublishPerSec: 0.001, PublishBurst: 2})

	// First publish executes, fences the shard.
	if err := r.Publish(context.Background(), testJob("t", "h")); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("fencing publish: got %v, want ErrShardUnavailable", err)
	}
	// Burst is 2 and the rate refills one token per ~17 minutes: attempts
	// 2..6 only stay ErrShardUnavailable if each one refunds its token.
	for i := 0; i < 5; i++ {
		err := r.Publish(context.Background(), testJob("t", "h"))
		if errors.Is(err, ErrQuotaExceeded) {
			t.Fatalf("attempt %d: retry against downed shard consumed quota: %v", i+2, err)
		}
		if !errors.Is(err, ErrShardUnavailable) {
			t.Fatalf("attempt %d: got %v, want ErrShardUnavailable", i+2, err)
		}
	}
	if got := reg.Counter("shard.admission.refunded").Value(); got < 5 {
		t.Errorf("refunded counter = %d, want >= 5", got)
	}

	// The shard repaired: the tenant's surviving token admits immediately.
	if err := r.Reinstate(0, okExec(nil)); err != nil {
		t.Fatalf("Reinstate: %v", err)
	}
	if err := r.Publish(context.Background(), testJob("t", "h")); err != nil {
		t.Fatalf("publish after repair: %v (quota should have survived the outage)", err)
	}
}

// TestRefundOnEmptyRing: the no-shards path refunds too.
func TestRefundOnEmptyRing(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := NewRouter(Config{Registry: reg})
	defer r.Close()
	r.SetQuota("t", TenantQuota{PublishPerSec: 0.001, PublishBurst: 1})
	for i := 0; i < 4; i++ {
		if err := r.Publish(context.Background(), testJob("t", "h")); !errors.Is(err, ErrShardUnavailable) {
			t.Fatalf("attempt %d on empty ring: got %v, want ErrShardUnavailable", i+1, err)
		}
	}
}

// TestAddShardAfterClose: AddShard and Reinstate on a closed router refuse
// with the typed error instead of starting a worker pool nothing stops.
func TestAddShardAfterClose(t *testing.T) {
	r := NewRouter(Config{})
	if err := r.AddShard(0, okExec(nil)); err != nil {
		t.Fatalf("AddShard on open router: %v", err)
	}
	r.Close()
	if err := r.AddShard(1, okExec(nil)); !errors.Is(err, ErrRouterClosed) {
		t.Errorf("AddShard after Close: got %v, want ErrRouterClosed", err)
	}
	if err := r.Reinstate(0, okExec(nil)); !errors.Is(err, ErrRouterClosed) {
		t.Errorf("Reinstate after Close: got %v, want ErrRouterClosed", err)
	}
}

// TestCloseReinstateRace: Close racing Reinstate must end with every
// shard front stopped — either Reinstate loses and returns the typed
// error, or it wins and Close stops the front it installed. Run with
// -race; the leak this guards against is a reinstated worker pool (and
// its queue goroutines) surviving Close.
func TestCloseReinstateRace(t *testing.T) {
	for i := 0; i < 50; i++ {
		r := NewRouter(Config{Workers: 2})
		if err := r.AddShard(0, okExec(nil)); err != nil {
			t.Fatalf("AddShard: %v", err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		errCh := make(chan error, 1)
		go func() {
			defer wg.Done()
			errCh <- r.Reinstate(0, okExec(nil))
		}()
		go func() {
			defer wg.Done()
			r.Close()
		}()
		wg.Wait()
		if err := <-errCh; err != nil && !errors.Is(err, ErrRouterClosed) {
			t.Fatalf("iteration %d: Reinstate: %v", i, err)
		}
		// Whoever won, the installed front must be stopped: a submit must
		// fail, not enqueue into a live pool.
		if err := r.Publish(context.Background(), testJob("t", "h")); !errors.Is(err, ErrShardUnavailable) {
			t.Fatalf("iteration %d: publish after close raced: %v", i, err)
		}
	}
}

// TestStopMidExecuteTypedError: tearing a shard down mid-Execute must
// surface ErrShardUnavailable (the shard went away), not a raw
// context.Canceled (which reads as the tenant's publish failing on its
// own terms), and must not count toward shard.<id>.failed.
func TestStopMidExecuteTypedError(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := NewRouter(Config{Registry: reg, Workers: 1})
	started := make(chan struct{})
	if err := r.AddShard(0, ExecFunc(func(ctx context.Context, j *Job) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	})); err != nil {
		t.Fatalf("AddShard: %v", err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- r.Publish(context.Background(), testJob("t", "h")) }()
	<-started
	r.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrShardUnavailable) {
			t.Errorf("stop mid-execute: got %v, want ErrShardUnavailable", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("stop mid-execute: %v should still wrap the cancellation cause", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("publish never completed after shard stop")
	}
	if got := reg.Counter("shard.0.failed").Value(); got != 0 {
		t.Errorf("shard.0.failed = %d after teardown, want 0 (teardown is not a tenant failure)", got)
	}
}
