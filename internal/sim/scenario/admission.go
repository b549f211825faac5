package scenario

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rdx/internal/mem"
	"rdx/internal/rdma"
	"rdx/internal/shard"
	"rdx/internal/sim"
	"rdx/internal/telemetry"
)

// admission scenario constants.
const (
	rbShards     = 2
	rbPubsPerTen = 3
	rbFleet      = "fleet"
	rbQuotaRate  = 50 // publishes/sec per tenant — finite, so refill needs the clock
	rbQuotaBurst = 2  // below rbPubsPerTen, so refill (a clock advance) is on the path
)

var rbTenants = []string{"acme", "globex"}

// rbShardState is the scenario-local shard front: the real Router's
// worker pools block on channels the scheduler cannot see, so the
// scenario models the lifecycle itself — a shard that refuses work
// (draining) and then leaves the ring (removed) — while exercising the
// REAL ring (shard.Map) and the REAL admission controller.
type rbShardState struct {
	draining bool
	removed  bool
}

// admissionWorld is the shared observation state; see failoverWorld for
// why it carries its own mutex.
type admissionWorld struct {
	mu            sync.Mutex
	shards        [rbShards]rbShardState
	acked         int
	inflight      int
	owners        map[string]map[uint64]int // key → ring epoch → owning shard at ack
	ownerConflict string
	crashReb      bool
}

// RunAdmission is the admission scenario: publishers admit against real
// token buckets, route through the real consistent-hash ring, and land
// one WRITE per publish on a per-shard cell. Mid-stream, shard 1 starts
// refusing work and then leaves the ring, so publishes race an owner that
// refuses them and a ring whose epoch moves. Faults: a crash that leaves
// shard 1 refusing for good, and clock advances (bucket refill, so quota
// rejects and refills interleave with the ring change).
//
// Invariants:
//   - token-conservation: admitted == acked + refunded + inflight at every
//     quiescent point. The historical refund-on-failure bug — skipping
//     Refund when the owner refuses the job — breaks exactly this.
//   - single-owner-per-epoch: no (tenant, hook) key is ever acked on two
//     different shards under the same ring epoch.
func RunAdmission(cfg sim.Config) *sim.Result {
	s := sim.New(cfg)
	net := sim.NewNet(s)
	reg := telemetry.NewRegistry()
	w := &admissionWorld{owners: map[string]map[uint64]int{}}

	// One cell per shard; a publish is one WRITE to its owner's cell.
	fleet := rdma.NewEndpoint(mem.NewArena(64), nil)
	defer fleet.Close()
	cells, err := fleet.RegisterMR("cells", 0, 64, rdma.PermAll)
	if err != nil {
		panic(err)
	}
	net.AddHost(rbFleet, fleet)

	ring := shard.NewMap(8)
	for id := 0; id < rbShards; id++ {
		ring.Add(id)
	}
	adm := shard.NewAdmission(shard.TenantQuota{
		PublishPerSec: rbQuotaRate,
		PublishBurst:  rbQuotaBurst,
	}, reg).WithClock(s.Clock())

	admitted := reg.Counter("shard.admission.admitted")
	refunded := reg.Counter("shard.admission.refunded")

	s.AddInvariant("token-conservation", func() error {
		w.mu.Lock()
		defer w.mu.Unlock()
		a, r := admitted.Value(), refunded.Value()
		if a != uint64(w.acked)+r+uint64(w.inflight) {
			return fmt.Errorf("admitted %d != acked %d + refunded %d + inflight %d",
				a, w.acked, r, w.inflight)
		}
		return nil
	})
	s.AddInvariant("single-owner-per-epoch", func() error {
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.ownerConflict != "" {
			return errors.New(w.ownerConflict)
		}
		return nil
	})

	s.AddAction("crash rebalance", 1, nil, func() {
		w.mu.Lock()
		w.crashReb = true
		w.mu.Unlock()
	})
	s.AddAction("advance clock 50ms", 2, nil, func() { s.Clock().Advance(50 * time.Millisecond) })

	for _, tenant := range rbTenants {
		tenant := tenant
		qp := net.QP("pub-"+tenant, rbFleet)
		s.Spawn("pub-"+tenant, func() {
			for i := 0; i < rbPubsPerTen; i++ {
				hook := fmt.Sprintf("h%d", i)
				if err := adm.Admit(tenant, 0); err != nil {
					if errors.Is(err, shard.ErrQuotaExceeded) {
						s.Clock().Sleep(20 * time.Millisecond) // park; refill needs Advance
						continue
					}
					return
				}
				w.mu.Lock()
				w.inflight++
				w.mu.Unlock()
				owner, epoch, ok := ring.LookupEpoch(tenant, hook)
				if !ok {
					adm.Refund(tenant, 0)
					w.mu.Lock()
					w.inflight--
					w.mu.Unlock()
					continue
				}
				// The publish verb: parked, so the refusal and the ring change
				// can land while this job is in flight.
				err := qp.WriteCtx(nil, cells.RKey, mem.Addr(owner*8), []byte{1, 2, 3, 4, 5, 6, 7, 8})
				w.mu.Lock()
				st := w.shards[owner]
				if err != nil || st.removed || st.draining {
					// The job never reached a live owner: undo the admission
					// charge. Forgetting this when the owner refuses work is
					// the historical refund-on-failure bug, re-seeded by the
					// simregression build.
					if !(st.draining && skipRefundOnDrain) {
						adm.Refund(tenant, 0)
					}
					w.inflight--
				} else {
					w.acked++
					w.inflight--
					key := tenant + "/" + hook
					if w.owners[key] == nil {
						w.owners[key] = map[uint64]int{}
					}
					if prev, seen := w.owners[key][epoch]; seen && prev != owner {
						w.ownerConflict = fmt.Sprintf("key %s acked on shards %d and %d under ring epoch %d",
							key, prev, owner, epoch)
					} else {
						w.owners[key][epoch] = owner
					}
				}
				w.mu.Unlock()
			}
		})
	}

	s.Spawn("rebalancer", func() {
		w.mu.Lock()
		w.shards[1].draining = true
		w.mu.Unlock()
		s.Clock().Sleep(10 * time.Millisecond) // the refusal window, as a park point
		w.mu.Lock()
		crashed := w.crashReb
		w.mu.Unlock()
		if crashed {
			return // crashed: shard 1 refuses work and never leaves the ring
		}
		ring.Remove(1)
		w.mu.Lock()
		w.shards[1].removed = true
		w.shards[1].draining = false
		w.mu.Unlock()
	})

	return s.Run()
}
