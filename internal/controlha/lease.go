package controlha

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rdx/internal/clock"
	"rdx/internal/core"
	"rdx/internal/rdma"
	"rdx/internal/telemetry"
)

// Witness MR layout. The witness is any memory both controllers can reach
// with one-sided verbs — in practice a region on a standby (or a third
// node); leadership needs no process on the witness's CPUs, only its RNIC.
//
//	+0  owner      controller ID holding the lease, 0 = vacant
//	+8  expiry     lease deadline, unix nanoseconds
//	+16 epoch      fencing epoch, bumped by FETCH_ADD on every acquisition
//	+24 (reserved)
const (
	WitnessMRName = "ha-witness"
	WitnessSize   = 32

	witnessOffOwner  = 0
	witnessOffExpiry = 8
	witnessOffEpoch  = 16
)

// ErrLeaseHeld reports an acquisition attempt while another controller's
// lease is current.
var ErrLeaseHeld = errors.New("controlha: lease held by another controller")

// Lease is one controller's view of the CAS lease word. Acquire CASes the
// owner word (vacant, or expired-owner takeover) and then FETCH_ADDs the
// fencing epoch: every successful acquisition observes a strictly higher
// epoch than every earlier one, so an old leader's Check — a remote read
// of the epoch word — can detect its own deposal without any channel to
// the new leader. Check is wired into core as the FenceCheck consulted
// before every dispatch CAS.
type Lease struct {
	mem   *core.RemoteMemory
	base  uint64
	id    uint64
	ttl   time.Duration
	reg   *telemetry.Registry
	clock clock.Clock

	mu     sync.Mutex
	held   bool
	epoch  uint64
	expiry time.Time
	chain  *ChainOffload
}

// NewLease binds a lease view over the witness MR at base. clk is the
// timeline of the TTL arithmetic (nil = the wall clock) — the simulator
// binds a virtual clock here so TTL expiry is a schedule step, not a
// wall-clock race. All leases sharing a witness must share one clock: expiry
// comparisons only mean anything on a common timeline.
func NewLease(mem *core.RemoteMemory, base uint64, id uint64, ttl time.Duration, reg *telemetry.Registry, clk clock.Clock) *Lease {
	if ttl <= 0 {
		ttl = 2 * time.Second
	}
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	if clk == nil {
		clk = clock.Real{}
	}
	return &Lease{mem: mem, base: base, id: id, ttl: ttl, reg: reg, clock: clk}
}

// Epoch returns the fencing epoch of the currently held term (0 if never
// held). It is the value Journal stamps into every entry.
func (l *Lease) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// Held reports whether this controller believes it holds the lease.
func (l *Lease) Held() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.held
}

// Acquire takes the lease if it is vacant or expired: CAS the owner word,
// then bump the fencing epoch and write the expiry. A live foreign lease
// fails with ErrLeaseHeld.
func (l *Lease) Acquire() error {
	owner, err := l.mem.ReadMem(l.base+witnessOffOwner, 8)
	if err != nil {
		return fmt.Errorf("controlha: witness read: %w", err)
	}
	switch {
	case owner == 0 || owner == l.id:
		if _, ok, err := l.mem.CompareAndSwapMem(l.base+witnessOffOwner, owner, l.id); err != nil {
			return fmt.Errorf("controlha: lease CAS: %w", err)
		} else if !ok {
			return ErrLeaseHeld
		}
	default:
		expiry, err := l.mem.ReadMem(l.base+witnessOffExpiry, 8)
		if err != nil {
			return fmt.Errorf("controlha: witness read: %w", err)
		}
		if l.clock.Now().UnixNano() < int64(expiry) {
			return fmt.Errorf("%w (owner %#x)", ErrLeaseHeld, owner)
		}
		// Expired owner: take over its word. Losing this CAS means another
		// standby won the race.
		if _, ok, err := l.mem.CompareAndSwapMem(l.base+witnessOffOwner, owner, l.id); err != nil {
			return fmt.Errorf("controlha: lease CAS: %w", err)
		} else if !ok {
			return ErrLeaseHeld
		}
	}
	return l.install()
}

// Steal takes the lease unconditionally — the administrative failover path
// (rdxctl failover, the chaos experiment's forced deposal). The epoch bump
// fences the previous holder even though its TTL had not expired.
func (l *Lease) Steal() error {
	for {
		owner, err := l.mem.ReadMem(l.base+witnessOffOwner, 8)
		if err != nil {
			return fmt.Errorf("controlha: witness read: %w", err)
		}
		if _, ok, err := l.mem.CompareAndSwapMem(l.base+witnessOffOwner, owner, l.id); err != nil {
			return fmt.Errorf("controlha: lease CAS: %w", err)
		} else if ok {
			break
		}
	}
	return l.install()
}

// install finishes an acquisition: bump the fencing epoch (FETCH_ADD, so
// concurrent acquirers get distinct, increasing epochs), write the expiry,
// and record the term locally.
func (l *Lease) install() error {
	prev, err := l.mem.FetchAddMem(l.base+witnessOffEpoch, 1)
	if err != nil {
		return fmt.Errorf("controlha: epoch bump: %w", err)
	}
	expiry := l.clock.Now().Add(l.ttl)
	if err := l.mem.WriteMem(l.base+witnessOffExpiry, 8, uint64(expiry.UnixNano())); err != nil {
		return fmt.Errorf("controlha: expiry write: %w", err)
	}
	l.mu.Lock()
	l.held = true
	l.epoch = prev + 1
	l.expiry = expiry
	l.mu.Unlock()
	l.reg.Counter("controlha.lease.acquired").Inc()
	return nil
}

// UseChain routes this lease's renewals through an armed renew chain (see
// ChainOffload): Renew becomes one ChainTrigger verb instead of two reads
// and a write. A nil offload restores the unoffloaded path.
func (l *Lease) UseChain(co *ChainOffload) {
	l.mu.Lock()
	l.chain = co
	l.mu.Unlock()
}

// RenewChain extends a held lease by firing the pre-posted renew chain with
// the new expiry as the trigger argument. The chain's ownership CAS and
// epoch guard run on the witness host's NIC; a revoked or faulted chain —
// or an access error from a rotated chain MR — means this controller was
// deposed, and the lease is marked lost locally (core.ErrFenced), exactly
// like Renew discovering a foreign owner.
func (l *Lease) RenewChain() error {
	l.mu.Lock()
	held, co := l.held, l.chain
	l.mu.Unlock()
	if !held {
		return fmt.Errorf("controlha: renew without lease: %w", core.ErrFenced)
	}
	if co == nil {
		return fmt.Errorf("controlha: no renew chain armed")
	}
	expiry := l.clock.Now().Add(l.ttl)
	if _, err := co.TriggerRenew(context.Background(), uint64(expiry.UnixNano())); err != nil {
		if errors.Is(err, rdma.ErrChainRevoked) || errors.Is(err, rdma.ErrChainFault) ||
			errors.Is(err, rdma.ErrAccess) {
			l.depose()
			return fmt.Errorf("controlha: renew chain refused (%w): %w", err, core.ErrFenced)
		}
		return fmt.Errorf("controlha: renew chain: %w", err)
	}
	l.mu.Lock()
	l.expiry = expiry
	l.mu.Unlock()
	l.reg.Counter("controlha.lease.renewed").Inc()
	return nil
}

// Renew extends a held lease after verifying remote ownership. Discovering
// a foreign owner (or epoch) marks the lease lost locally. When a renew
// chain is attached (UseChain), the whole sequence is offloaded to the
// witness host's NIC via RenewChain.
func (l *Lease) Renew() error {
	l.mu.Lock()
	held, epoch := l.held, l.epoch
	chained := l.chain != nil
	l.mu.Unlock()
	if chained {
		return l.RenewChain()
	}
	if !held {
		return fmt.Errorf("controlha: renew without lease: %w", core.ErrFenced)
	}
	owner, err := l.mem.ReadMem(l.base+witnessOffOwner, 8)
	if err != nil {
		return fmt.Errorf("controlha: witness read: %w", err)
	}
	cur, err := l.mem.ReadMem(l.base+witnessOffEpoch, 8)
	if err != nil {
		return fmt.Errorf("controlha: witness read: %w", err)
	}
	if owner != l.id || cur != epoch {
		l.depose()
		return fmt.Errorf("controlha: lease taken by %#x (epoch %d, held %d): %w",
			owner, cur, epoch, core.ErrFenced)
	}
	expiry := l.clock.Now().Add(l.ttl)
	if err := l.mem.WriteMem(l.base+witnessOffExpiry, 8, uint64(expiry.UnixNano())); err != nil {
		return fmt.Errorf("controlha: expiry write: %w", err)
	}
	l.mu.Lock()
	l.expiry = expiry
	l.mu.Unlock()
	l.reg.Counter("controlha.lease.renewed").Inc()
	return nil
}

// depose marks the lease lost locally.
func (l *Lease) depose() {
	l.mu.Lock()
	l.held = false
	l.mu.Unlock()
}

// Check implements core.FenceCheck: fail unless this controller still
// holds the current term. Locally, the lease must be held and unexpired;
// remotely, the witness epoch word must still equal the held epoch (one
// READ — cheap enough to sit in front of every dispatch CAS). Everything
// fails closed: an unreadable witness refuses the publish rather than
// risking a split-brain pointer flip. The check cannot close the window
// completely — a deposal can land between the READ and the CAS — but it
// narrows it to a single in-flight verb, and the replay path makes any
// such lost publish converge: the successor's re-driven flip lands last.
func (l *Lease) Check() error {
	l.mu.Lock()
	held, epoch, expiry := l.held, l.epoch, l.expiry
	l.mu.Unlock()
	if !held {
		l.reg.Counter("controlha.lease.fenced_rejects").Inc()
		return fmt.Errorf("controlha: lease not held: %w", core.ErrFenced)
	}
	if l.clock.Now().After(expiry) {
		l.reg.Counter("controlha.lease.fenced_rejects").Inc()
		return fmt.Errorf("controlha: lease expired locally: %w", core.ErrFenced)
	}
	cur, err := l.mem.ReadMem(l.base+witnessOffEpoch, 8)
	if err != nil {
		return fmt.Errorf("controlha: fence check unreadable (failing closed): %w", err)
	}
	if cur != epoch {
		l.depose()
		l.reg.Counter("controlha.lease.fenced_rejects").Inc()
		return fmt.Errorf("controlha: fencing epoch %d superseded by %d: %w",
			epoch, cur, core.ErrFenced)
	}
	return nil
}

// Release vacates the owner word if still held by this controller (best
// effort; an expired lease simply lapses). The epoch word keeps its value,
// so every controller deposed before this term stays fenced.
func (l *Lease) Release() error {
	l.mu.Lock()
	held := l.held
	l.held = false
	l.mu.Unlock()
	if !held {
		return nil
	}
	_, _, err := l.mem.CompareAndSwapMem(l.base+witnessOffOwner, l.id, 0)
	return err
}
