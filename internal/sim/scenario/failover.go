// Package scenario wires real controlha and shard protocol code under the
// sim scheduler. Each Run* function is a sim.Runner: it builds a fresh
// world (standby host, controllers, publishers), registers the fault
// actions and invariants, and drives one schedule to completion. The
// scenarios deliberately exercise the REAL implementations — Lease,
// Replicator, Journal, Replay, TakeOver, Map, Admission — with only the
// transport and the clock virtualized.
package scenario

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"rdx/internal/controlha"
	"rdx/internal/core"
	"rdx/internal/sim"
)

// failover scenario constants: a short TTL so the lease-expiry fault is
// one clock jump, and few enough appends that every run stays small.
const (
	foTTL        = 100 * time.Millisecond
	foAppendsA   = 4
	foAppendsB   = 2
	foRingCap    = 1 << 16
	foLeaderA    = 1
	foLeaderB    = 2
	foStandby    = "standby"
	foInitiatorA = "ctrl-a"
	foInitiatorB = "ctrl-b"
)

// ackRec is one acknowledged publish: the journal seq and fencing epoch
// it was acked under.
type ackRec struct {
	seq   uint64
	fence uint64
}

// failoverWorld is the scenario's shared observation state. Its mutex is
// scenario-owned: procs update it between park points, and after an abort
// they unwind concurrently, so even the single-stepped scheduler needs
// real locking here.
type failoverWorld struct {
	mu           sync.Mutex
	acked        []ackRec
	leases       []*controlha.Lease
	takeoverDone bool
	curEpoch     uint64 // successor's fencing epoch once takeoverDone
	replayedSeq  uint64 // LastSeq the successor replayed at takeover
}

func (w *failoverWorld) recordAck(seq, fence uint64) {
	w.mu.Lock()
	w.acked = append(w.acked, ackRec{seq, fence})
	w.mu.Unlock()
}

// appendPublishes journals n EntryPublish records, recording each ack.
// Stops at the first failed append — a fenced or aborted leader must not
// keep publishing.
func appendPublishes(j *controlha.Journal, w *failoverWorld, node string, n int, baseVer uint64) {
	for i := 0; i < n; i++ {
		e := controlha.Entry{
			Type:    controlha.EntryPublish,
			Node:    node,
			Hook:    "xdp",
			Name:    fmt.Sprintf("flt-%d", baseVer+uint64(i)),
			Digest:  "d0",
			Version: baseVer + uint64(i),
			Blob:    0x1000,
		}
		if err := j.Append(e); err != nil {
			return
		}
		ents := j.Entries()
		last := ents[len(ents)-1]
		w.recordAck(last.Seq, last.Fence)
	}
}

// RunFailover is the leader-failover scenario: leader A attaches and
// journals in Setup (unrecorded prologue), then an appending A, an
// A-side fence probe, and a B takeover interleave under the scheduler,
// with partition / duplicate-delivery / lease-expiry / leader-kill
// faults available as schedule steps.
//
// Invariants:
//   - journal-replayable: the standby's committed ring prefix must replay
//     cleanly at every step (contiguous seqs, non-regressing fences).
//   - acked-durable: once a takeover completed, no publish acked under a
//     superseded fence may sit beyond the seq the successor replayed —
//     that ack escaped failover.
//   - single-leader: at most one controller holds the lease at the
//     current witness epoch.
func RunFailover(cfg sim.Config) *sim.Result {
	s := sim.New(cfg)
	net := sim.NewNet(s)
	w := &failoverWorld{}

	host, err := controlha.NewHostWith(foRingCap, nil)
	if err != nil {
		panic(err)
	}
	defer host.Close()
	net.AddHost(foStandby, host.Endpoint())

	// Prologue: A becomes leader and journals two publishes. Setup fires
	// these steps in program order without recording them, so schedules
	// and minimized traces start at the interesting part.
	var ldrA *controlha.Leader
	s.Setup("attach-A", func() {
		cp := core.NewControlPlane()
		cp.Clock = s.Clock()
		ldrA, err = controlha.AttachLeader(cp, net.QP(foInitiatorA, foStandby), foLeaderA, foTTL)
		if err != nil {
			panic(fmt.Sprintf("scenario: leader A attach: %v", err))
		}
		appendPublishes(ldrA.Journal, w, "n0", 2, 1)
	})
	w.leases = append(w.leases, ldrA.Lease)

	s.AddInvariant("journal-replayable", func() error {
		b, err := host.CommittedBytes()
		if err != nil {
			return err
		}
		want, err := controlha.Replay(b)
		if err != nil {
			return err
		}
		// The standby folds as it pumps (local reads: no verb, no schedule
		// step): its running state must be exactly that replay.
		if _, err := host.Pump(); err != nil {
			return err
		}
		if got, err := host.State(); err != nil || !reflect.DeepEqual(got, want) {
			return fmt.Errorf("standby's folded state diverged from a replay of its %d committed bytes (%v)", len(b), err)
		}
		return nil
	})
	s.AddInvariant("acked-durable", func() error {
		w.mu.Lock()
		defer w.mu.Unlock()
		if !w.takeoverDone {
			return nil
		}
		for _, a := range w.acked {
			if a.fence < w.curEpoch && a.seq > w.replayedSeq {
				return fmt.Errorf("publish acked at seq %d under fenced epoch %d escaped takeover replay (replayed through seq %d, epoch %d)",
					a.seq, a.fence, w.replayedSeq, w.curEpoch)
			}
		}
		return nil
	})
	s.AddInvariant("single-leader", func() error {
		epoch, err := host.WitnessEpoch()
		if err != nil {
			return err
		}
		w.mu.Lock()
		defer w.mu.Unlock()
		holders := 0
		for _, l := range w.leases {
			if l.Held() && l.Epoch() == epoch {
				holders++
			}
		}
		if holders > 1 {
			return fmt.Errorf("%d controllers hold the lease at witness epoch %d", holders, epoch)
		}
		return nil
	})

	s.AddAction("cut A↔standby", 1, nil, func() { net.Cut(foInitiatorA, foStandby) })
	s.AddAction("heal A↔standby", 1, nil, func() { net.Heal(foInitiatorA, foStandby) })
	s.AddAction("duplicate next A WRITE", 1, nil, func() { net.DuplicateNextWrite(foInitiatorA, foStandby) })
	s.AddAction("advance clock past TTL", 2, nil, func() { s.Clock().Advance(foTTL + time.Millisecond) })
	s.AddAction("kill A", 1, nil, func() { net.Sever(foInitiatorA) })

	s.Spawn("A-append", func() {
		appendPublishes(ldrA.Journal, w, "n0", foAppendsA, 10)
	})
	s.Spawn("A-fence-probe", func() {
		for i := 0; i < 2; i++ {
			if err := ldrA.Lease.Check(); err != nil {
				return // deposed or unreachable: A stops probing
			}
		}
	})
	s.Spawn("B-takeover", func() {
		cp := core.NewControlPlane()
		cp.Clock = s.Clock()
		ldrB, state, err := controlha.TakeOver(cp, host, net.QP(foInitiatorB, foStandby), foLeaderB, foTTL, nil)
		if err != nil {
			return // aborted or raced; nothing to assert
		}
		w.mu.Lock()
		w.leases = append(w.leases, ldrB.Lease)
		w.takeoverDone = true
		w.curEpoch = ldrB.Lease.Epoch()
		w.replayedSeq = state.LastSeq
		w.mu.Unlock()
		appendPublishes(ldrB.Journal, w, "n1", foAppendsB, 100)
	})

	return s.Run()
}
