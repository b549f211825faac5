package shard

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func job(tenant string) *Job {
	return &Job{Tenant: tenant, done: make(chan error, 1)}
}

// TestFairShareWeights: there are no weights — three backlogged tenants
// share dispatch exactly equally, one job each per round, whatever their
// queue depths.
func TestFairShareWeights(t *testing.T) {
	q := newFairQueue(10000)
	depths := map[string]int{"a": 900, "b": 600, "c": 300}
	for tn, n := range depths {
		for i := 0; i < n; i++ {
			if err := q.push(job(tn)); err != nil {
				t.Fatal(err)
			}
		}
	}
	counts := map[string]int{}
	const draws = 900 // all tenants stay backlogged throughout
	for i := 0; i < draws; i++ {
		j, ok := q.pop()
		if !ok {
			t.Fatal("pop failed with jobs queued")
		}
		counts[j.Tenant]++
		for tn, c := range counts {
			if c > (i+3)/3 {
				t.Fatalf("after %d draws tenant %s has %d: ahead of its round", i+1, tn, c)
			}
		}
	}
	for tn := range depths {
		if counts[tn] != draws/3 {
			t.Errorf("tenant %s dispatched %d of %d, want exactly %d", tn, counts[tn], draws, draws/3)
		}
	}
}

// TestFairQueueForgetsDrainedTenants: the queue's tenant state is bounded
// by its backlog — 10 000 one-job tenants, served in arrival order, leave
// an empty tenant map and ring once drained.
func TestFairQueueForgetsDrainedTenants(t *testing.T) {
	const tenants = 10000
	q := newFairQueue(tenants)
	for i := 0; i < tenants; i++ {
		if err := q.push(job(fmt.Sprintf("t%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(q.fifos); got != tenants {
		t.Fatalf("%d tenants backlogged, want %d", got, tenants)
	}
	for i := 0; i < tenants; i++ {
		j, ok := q.pop()
		if !ok || j.Tenant != fmt.Sprintf("t%d", i) {
			t.Fatalf("pop %d = %v, want tenant t%d in arrival order", i, j, i)
		}
	}
	if n := len(q.ring) - q.head; len(q.fifos) != 0 || n != 0 {
		t.Fatalf("after draining: %d tenants in the map, %d in the ring, want 0 and 0", len(q.fifos), n)
	}
}

// TestFairShareFIFOWithinTenant: a tenant's own jobs dispatch in push order.
func TestFairShareFIFOWithinTenant(t *testing.T) {
	q := newFairQueue(100)
	var jobs []*Job
	for i := 0; i < 10; i++ {
		j := job("tn")
		j.Hook = fmt.Sprintf("h%d", i)
		jobs = append(jobs, j)
		if err := q.push(j); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		j, ok := q.pop()
		if !ok || j != jobs[i] {
			t.Fatalf("pop %d returned %v, want job %s", i, j.Hook, jobs[i].Hook)
		}
	}
}

// TestFairShareNoBankedCredit: a tenant idle while another drains the
// queue re-enters behind the tenants already backlogged — it does not get
// a monopolizing run from time spent idle.
func TestFairShareNoBankedCredit(t *testing.T) {
	q := newFairQueue(1000)
	// Busy tenant runs alone for a while.
	for i := 0; i < 50; i++ {
		q.push(job("busy"))
	}
	for i := 0; i < 50; i++ {
		q.pop()
	}
	// Now both queue up: shares should be ~even from here on.
	for i := 0; i < 40; i++ {
		q.push(job("busy"))
		q.push(job("idler"))
	}
	counts := map[string]int{}
	for i := 0; i < 40; i++ {
		j, _ := q.pop()
		counts[j.Tenant]++
	}
	if counts["idler"] > 25 {
		t.Errorf("idle tenant won %d of 40 draws: banked credit not clamped", counts["idler"])
	}
	if counts["busy"] < 15 {
		t.Errorf("busy tenant won only %d of 40 draws", counts["busy"])
	}
}

// TestFairQueueBlockingBackpressure: push blocks at capacity and resumes
// after a pop frees a slot.
func TestFairQueueBlockingBackpressure(t *testing.T) {
	q := newFairQueue(2)
	q.push(job("tn"))
	q.push(job("tn"))
	released := make(chan error, 1)
	go func() { released <- q.push(job("tn")) }()
	select {
	case err := <-released:
		t.Fatalf("push returned (%v) with the queue at capacity", err)
	default:
	}
	if _, ok := q.pop(); !ok {
		t.Fatal("pop failed")
	}
	if err := <-released; err != nil {
		t.Fatalf("blocked push failed after slot freed: %v", err)
	}
	if got := q.len(); got != 2 {
		t.Errorf("depth = %d, want 2", got)
	}
}

// TestFairQueueClose: close fails every queued job with the close error,
// wakes blocked pushers, and makes pop return !ok.
func TestFairQueueClose(t *testing.T) {
	q := newFairQueue(2)
	j1, j2 := job("a"), job("b")
	q.push(j1)
	q.push(j2)
	blockedPush := make(chan error, 1)
	go func() { blockedPush <- q.push(job("c")) }()

	cause := fmt.Errorf("%w: leader deposed", ErrShardUnavailable)
	q.close(cause)

	for i, j := range []*Job{j1, j2} {
		select {
		case err := <-j.done:
			if !errors.Is(err, ErrShardUnavailable) {
				t.Errorf("queued job %d drained with %v, want ErrShardUnavailable", i, err)
			}
		default:
			t.Errorf("queued job %d not drained on close", i)
		}
	}
	if err := <-blockedPush; !errors.Is(err, ErrShardUnavailable) {
		t.Errorf("blocked push returned %v, want ErrShardUnavailable", err)
	}
	if _, ok := q.pop(); ok {
		t.Error("pop succeeded on a closed, drained queue")
	}
	q.close(cause) // idempotent
}

// TestFairQueueConcurrent hammers the queue from many pushers and poppers
// (run with -race) and checks nothing is lost or duplicated.
func TestFairQueueConcurrent(t *testing.T) {
	q := newFairQueue(64)
	const pushers, perPusher = 8, 200
	var wg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPusher; i++ {
				if err := q.push(job(fmt.Sprintf("t%d", p))); err != nil {
					t.Errorf("push: %v", err)
					return
				}
			}
		}(p)
	}
	popped := make(chan *Job, pushers*perPusher)
	var poppers sync.WaitGroup
	for w := 0; w < 4; w++ {
		poppers.Add(1)
		go func() {
			defer poppers.Done()
			for {
				j, ok := q.pop()
				if !ok {
					return
				}
				popped <- j
			}
		}()
	}
	wg.Wait()
	// Let the poppers drain the remainder, then close to release them.
	waitUntil(t, "fair queue drained", func() bool { return q.len() == 0 })
	q.close(nil)
	poppers.Wait()
	close(popped)
	n := 0
	for range popped {
		n++
	}
	if n != pushers*perPusher {
		t.Errorf("popped %d jobs, pushed %d", n, pushers*perPusher)
	}
}
