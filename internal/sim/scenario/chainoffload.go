package scenario

import (
	"fmt"
	"time"

	"rdx/internal/controlha"
	"rdx/internal/core"
	"rdx/internal/sim"
)

// chain-offload scenario constants.
const (
	chTTL     = 100 * time.Millisecond
	chRingCap = 1 << 16
	chLeaderA = 1
	chLeaderB = 2
	chStandby = "standby"
	chCtrlA   = "ctrl-a"
	chCtrlB   = "ctrl-b"
)

// chainWorld extends the failover observation state with the chain
// offload's own bookkeeping: which fences have fired (so a later chain
// success can be convicted as stale) and the first conviction.
type chainWorld struct {
	failoverWorld
	chainsFenced bool // ha-chain MR rotated: the resident chain's region rkey is dead
	staleErr     error
}

func (w *chainWorld) convict(err error) {
	w.mu.Lock()
	if w.staleErr == nil {
		w.staleErr = err
	}
	w.mu.Unlock()
}

// RunChainOffload is the verb-chain offload scenario: leader A attaches,
// arms the renew chain, and journals a prologue in Setup; then A's
// publishes, A's chained renewals, and B's takeover (which re-arms the renew
// chain for its own term and renews through it) interleave under the
// scheduler, with chain-MR rotation, lease expiry, and partitions available
// as schedule steps. Every chain trigger is ONE step — the semantics under
// test: between trigger and effect there is nothing for the scheduler to
// interleave.
//
// Invariants:
//   - single-leader: at most one controller holds the lease at the
//     current witness epoch.
//   - acked-durable: no publish acked under a superseded fence escapes
//     the successor's replay.
//   - stale-chain-rejected: the instant the witness epoch moves past A's
//     arming epoch (B's Steal bumps it mid-takeover) or the chain MR is
//     rotated, a renewal by A must NOT succeed — a deposed leader extending
//     its lease through a resident program is what the witness-epoch guard
//     and the program's own owner CAS refuse, before the successor has
//     re-armed anything.
func RunChainOffload(cfg sim.Config) *sim.Result {
	s := sim.New(cfg)
	net := sim.NewNet(s)
	w := &chainWorld{}

	host, err := controlha.NewHostWith(chRingCap, nil)
	if err != nil {
		panic(err)
	}
	defer host.Close()
	net.AddHost(chStandby, host.Endpoint())

	// Prologue: A becomes leader, arms the renew chain, and journals two
	// publishes — unrecorded, so schedules start at the interesting part.
	var ldrA *controlha.Leader
	s.Setup("attach-A", func() {
		cp := core.NewControlPlane()
		cp.Clock = s.Clock()
		ldrA, err = controlha.AttachLeader(cp, net.QP(chCtrlA, chStandby), chLeaderA, chTTL)
		if err != nil {
			panic(fmt.Sprintf("scenario: leader A attach: %v", err))
		}
		_, err = controlha.AttachChain(ldrA, net.QP(chCtrlA, chStandby))
		if err != nil {
			panic(fmt.Sprintf("scenario: chain attach: %v", err))
		}
		appendPublishes(ldrA.Journal, &w.failoverWorld, "n0", 2, 1)
	})
	w.leases = append(w.leases, ldrA.Lease)

	s.AddInvariant("journal-replayable", func() error {
		b, err := host.CommittedBytes()
		if err != nil {
			return err
		}
		_, err = controlha.Replay(b)
		return err
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
	s.AddInvariant("stale-chain-rejected", func() error {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.staleErr
	})

	s.AddAction("rotate ha-chain MR", 1, nil, func() {
		if err := host.FenceChains(); err == nil {
			w.mu.Lock()
			w.chainsFenced = true
			w.mu.Unlock()
		}
	})
	s.AddAction("advance clock past TTL", 1, nil, func() { s.Clock().Advance(chTTL + time.Millisecond) })
	s.AddAction("cut A↔standby", 1, nil, func() { net.Cut(chCtrlA, chStandby) })
	s.AddAction("heal A↔standby", 1, nil, func() { net.Heal(chCtrlA, chStandby) })

	// A's arming epoch: the renew chain A pre-posted is guarded on this
	// witness-epoch value.
	epochA := ldrA.Lease.Epoch()

	s.Spawn("A-append", func() {
		appendPublishes(ldrA.Journal, &w.failoverWorld, "n0", 3, 10)
	})
	s.Spawn("A-renew", func() {
		for i := 0; i < 3; i++ {
			err := ldrA.Lease.Renew()
			// Read the witness and fence flags AFTER the trigger: steps are
			// serialized (no other proc runs between this step firing and
			// this read), so this sees exactly the state the trigger executed
			// under. Any deposal or fence that landed as an earlier step must
			// have made the chain refuse — a success here convicts it.
			ep, eperr := host.WitnessEpoch()
			w.mu.Lock()
			rot := w.chainsFenced
			w.mu.Unlock()
			if err == nil && (eperr == nil && ep != epochA || rot) {
				w.convict(fmt.Errorf("deposed leader A renewed its lease through a resident chain after fencing (epoch %d→%d rotate=%v)",
					epochA, ep, rot))
			}
			if err != nil {
				return // deposed, fenced, or partitioned: A stops renewing
			}
		}
	})
	s.Spawn("B-takeover", func() {
		cp := core.NewControlPlane()
		cp.Clock = s.Clock()
		ldrB, state, err := controlha.TakeOver(cp, host, net.QP(chCtrlB, chStandby), chLeaderB, chTTL, nil)
		if err != nil {
			return // raced or partitioned; nothing to assert
		}
		w.mu.Lock()
		w.leases = append(w.leases, ldrB.Lease)
		w.takeoverDone = true
		w.curEpoch = ldrB.Lease.Epoch()
		w.replayedSeq = state.LastSeq
		w.mu.Unlock()
		// The successor arms the renew chain for its OWN term (fresh MR
		// discovery picks up any rotated rkey) and renews through it:
		// fencing the predecessor must not cost the successor the offload.
		if _, err := controlha.AttachChain(ldrB, net.QP(chCtrlB, chStandby)); err == nil {
			_ = ldrB.Lease.Renew()
		}
		appendPublishes(ldrB.Journal, &w.failoverWorld, "n1", 2, 100)
	})

	return s.Run()
}
