package shard

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"rdx/internal/core"
	"rdx/internal/ext"
	"rdx/internal/telemetry"
)

func okExec(counter *atomic.Int64) ExecFunc {
	return func(ctx context.Context, j *Job) error {
		if counter != nil {
			counter.Add(1)
		}
		return nil
	}
}

func testJob(tenant, hook string) *Job {
	return &Job{Tenant: tenant, Hook: hook, Ext: &ext.Extension{}}
}

// TestRouterRoutesByKey: jobs land on the shard the ring assigns, and the
// per-shard published counters in the shared registry reflect that split.
func TestRouterRoutesByKey(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := NewRouter(Config{Registry: reg})
	r.workers = 2
	defer r.Close()
	var n0, n1 atomic.Int64
	r.AddShard(0, okExec(&n0))
	r.AddShard(1, okExec(&n1))

	const jobs = 200
	want := map[int]int64{}
	for i := 0; i < jobs; i++ {
		tn := fmt.Sprintf("tenant-%d", i)
		id, ok := r.ShardFor(tn, "h")
		if !ok {
			t.Fatal("ShardFor on populated router failed")
		}
		want[id]++
		if err := r.Publish(context.Background(), testJob(tn, "h")); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if n0.Load() != want[0] || n1.Load() != want[1] {
		t.Errorf("executor split (%d, %d) != ring split (%d, %d)", n0.Load(), n1.Load(), want[0], want[1])
	}
	if want[0] == 0 || want[1] == 0 {
		t.Error("ring routed all keys to one shard")
	}
	st := r.Status()
	if len(st) != 2 || st[0].Published != uint64(want[0]) || st[1].Published != uint64(want[1]) {
		t.Errorf("Status() = %+v, want published (%d, %d)", st, want[0], want[1])
	}
}

// TestRouterTypedErrors: a job missing fields is refused, and a job on an
// empty ring fails with ErrShardUnavailable.
func TestRouterTypedErrors(t *testing.T) {
	r := NewRouter(Config{})
	defer r.Close()
	if err := r.Publish(context.Background(), &Job{Tenant: "t"}); err == nil {
		t.Error("publish with missing fields succeeded")
	}
	if err := r.Publish(context.Background(), testJob("t", "h")); !errors.Is(err, ErrShardUnavailable) {
		t.Errorf("empty ring: got %v, want ErrShardUnavailable", err)
	}
}

// TestRouterExecutorErrorPassthrough: a plain executor error reaches the
// publisher untyped and does NOT down the shard.
func TestRouterExecutorErrorPassthrough(t *testing.T) {
	r := NewRouter(Config{})
	defer r.Close()
	boom := errors.New("verifier rejected program")
	fail := true
	r.AddShard(0, ExecFunc(func(ctx context.Context, j *Job) error {
		if fail {
			return boom
		}
		return nil
	}))
	if err := r.Publish(context.Background(), testJob("t", "h")); !errors.Is(err, boom) {
		t.Fatalf("got %v, want executor error", err)
	}
	if r.ShardDown(0) {
		t.Fatal("plain executor error fenced the shard")
	}
	fail = false
	if err := r.Publish(context.Background(), testJob("t", "h")); err != nil {
		t.Fatalf("publish after transient failure: %v", err)
	}
}

// TestRouterFenceIsolation is the per-shard fencing contract: an executor
// error wrapping core.ErrFenced downs exactly one shard — its tenants get
// ErrShardUnavailable, every other shard's tenants keep publishing — and
// Reinstate restores the fenced range without disturbing the ring.
func TestRouterFenceIsolation(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := NewRouter(Config{Registry: reg})
	defer r.Close()

	var healthy atomic.Int64
	fenceHits := atomic.Bool{}
	r.AddShard(0, ExecFunc(func(ctx context.Context, j *Job) error {
		fenceHits.Store(true)
		return fmt.Errorf("publish %s: %w", j.Hook, core.ErrFenced)
	}))
	r.AddShard(1, okExec(&healthy))
	r.AddShard(2, okExec(&healthy))

	// Find tenants for each shard deterministically.
	tenantOn := func(id int) string {
		for i := 0; ; i++ {
			tn := fmt.Sprintf("iso-%d", i)
			if got, _ := r.ShardFor(tn, "h"); got == id {
				return tn
			}
		}
	}
	t0, t1, t2 := tenantOn(0), tenantOn(1), tenantOn(2)

	err := r.Publish(context.Background(), testJob(t0, "h"))
	if !errors.Is(err, ErrShardUnavailable) || !errors.Is(err, core.ErrFenced) {
		t.Fatalf("fenced shard publish: got %v, want ErrShardUnavailable wrapping core.ErrFenced", err)
	}
	if !r.ShardDown(0) {
		t.Fatal("shard 0 not marked down after fenced executor error")
	}
	// Subsequent jobs for the fenced range fail fast without reaching the
	// executor again; other shards are untouched.
	fenceHits.Store(false)
	if err := r.Publish(context.Background(), testJob(t0, "h")); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("second publish to fenced shard: got %v", err)
	}
	if fenceHits.Load() {
		t.Error("fenced shard still reached its executor")
	}
	for i := 0; i < 10; i++ {
		if err := r.Publish(context.Background(), testJob(t1, "h")); err != nil {
			t.Fatalf("healthy shard 1 publish failed during sibling fence: %v", err)
		}
		if err := r.Publish(context.Background(), testJob(t2, "h")); err != nil {
			t.Fatalf("healthy shard 2 publish failed during sibling fence: %v", err)
		}
	}
	if healthy.Load() != 20 {
		t.Errorf("healthy shards executed %d jobs, want 20", healthy.Load())
	}
	if r.ShardDown(1) || r.ShardDown(2) {
		t.Error("fence leaked to a sibling shard")
	}
	if got := reg.Counter("shard.0.fenced").Value(); got != 1 {
		t.Errorf("shard.0.fenced = %d, want 1", got)
	}

	// Failover: a successor executor reinstates the shard, same ring range.
	var revived atomic.Int64
	if err := r.Reinstate(0, okExec(&revived)); err != nil {
		t.Fatalf("reinstate: %v", err)
	}
	if r.ShardDown(0) {
		t.Fatal("shard 0 still down after reinstate")
	}
	if id, _ := r.ShardFor(t0, "h"); id != 0 {
		t.Fatalf("tenant %s moved to shard %d across reinstate", t0, id)
	}
	if err := r.Publish(context.Background(), testJob(t0, "h")); err != nil {
		t.Fatalf("publish after reinstate: %v", err)
	}
	if revived.Load() != 1 {
		t.Errorf("successor executed %d jobs, want 1", revived.Load())
	}
	if err := r.Reinstate(99, okExec(nil)); err == nil {
		t.Error("reinstate of unknown shard succeeded")
	}
}

// TestRouterQueuedJobsFailOnFence: jobs already queued behind a fencing
// job drain with ErrShardUnavailable instead of hanging.
func TestRouterQueuedJobsFailOnFence(t *testing.T) {
	r := NewRouter(Config{})
	r.workers = 1
	r.queueCap = 16
	defer r.Close()
	gate := make(chan struct{})
	r.AddShard(0, ExecFunc(func(ctx context.Context, j *Job) error {
		<-gate
		return fmt.Errorf("deposed: %w", core.ErrFenced)
	}))

	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func(i int) {
			errs <- r.Publish(context.Background(), testJob("t", fmt.Sprintf("h%d", i)))
		}(i)
	}
	// Let the jobs queue up behind the gated worker, then release it: the
	// first job fences the shard, the rest must drain with the typed error.
	waitUntil(t, "three jobs queued behind the gated worker", func() bool {
		return r.Status()[0].QueueDepth == 3
	})
	close(gate)
	for i := 0; i < 4; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrShardUnavailable) {
				t.Errorf("queued job got %v, want ErrShardUnavailable", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued job hung after shard fence")
		}
	}
}

// TestRouterContextCancel: a publisher abandoned by its context returns
// promptly while the job may still complete behind it.
func TestRouterContextCancel(t *testing.T) {
	r := NewRouter(Config{})
	r.workers = 1
	defer r.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	r.AddShard(0, ExecFunc(func(ctx context.Context, j *Job) error {
		close(started)
		<-block
		return nil
	}))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- r.Publish(ctx, testJob("t", "h")) }()
	// Cancel only once the job is demonstrably inside the executor.
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("publish did not observe context cancellation")
	}
	close(block)
}
