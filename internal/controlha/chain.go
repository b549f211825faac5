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
	"rdx/internal/verbchain"
)

// ChainOffload arms and fires the HA control chains resident in a standby
// host's ha-chain MR (DESIGN.md §15): lease renewal and heartbeating as
// pre-posted verbchain programs, each fired by a single OpChainTrigger.
//
// What the offload buys: both paths collapse from multi-round-trip verb
// sequences driven by the leader's CPU into one wire verb whose multi-step
// effect executes on the STANDBY's NIC. A leader whose cores are saturated
// still renews its lease and still beats its heart at fabric speed — the
// only leader-side work per period is posting one trigger. Conversely a
// leader that is actually dead stops posting triggers, and the standby's
// deadman (Host.StartDeadman) notices with local reads alone.
//
// Fencing composes with the witness exactly like the unoffloaded paths:
// every program is guarded on the witness epoch word, so the instant a
// successor's FETCH-ADD bumps the epoch, resident chains revoke themselves
// mid-flight — the stale leader's next trigger returns ErrChainRevoked and
// it deposes locally, the same contract Renew enforces with reads.
type ChainOffload struct {
	mem   *core.RemoteMemory
	base  uint64 // ha-chain MR base
	wbase uint64 // witness MR base
	id    uint64
	epoch uint64
	reg   *telemetry.Registry

	mu      sync.Mutex
	hbArmed bool
	rnArmed bool
	hbStop  chan struct{}
	hbDone  chan struct{}
}

// NewChainOffload binds a chain view over a host's MR table for the leader
// (id) holding fencing epoch. Arm the individual chains before triggering.
func NewChainOffload(mem *core.RemoteMemory, mrs []rdma.MR, id, epoch uint64, reg *telemetry.Registry) (*ChainOffload, error) {
	chain, err := findMR(mrs, ChainMRName)
	if err != nil {
		return nil, err
	}
	witness, err := findMR(mrs, WitnessMRName)
	if err != nil {
		return nil, err
	}
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &ChainOffload{
		mem:   mem,
		base:  chain.Addr,
		wbase: witness.Addr,
		id:    id,
		epoch: epoch,
		reg:   reg,
	}, nil
}

// guard returns the fencing predicate every HA chain carries: the witness
// epoch must still equal the arming epoch before EVERY step, or the chain
// revokes itself.
func (c *ChainOffload) guard() (verbchain.Guard, error) {
	if !guardChains {
		return verbchain.Guard{}, nil
	}
	rkey, err := c.mem.RKeyFor(c.wbase+witnessOffEpoch, 8)
	if err != nil {
		return verbchain.Guard{}, err
	}
	return verbchain.Guard{Enabled: true, RKey: rkey, Addr: c.wbase + witnessOffEpoch, Want: c.epoch}, nil
}

// arm validates prog against the live MR table and writes the freshly
// initialized chain region at slot.
func (c *ChainOffload) arm(slot uint64, prog *verbchain.Program) error {
	if err := prog.Validate(c.mem.Regions()); err != nil {
		return fmt.Errorf("controlha: chain validate: %w", err)
	}
	region := verbchain.EncodeRegion(prog)
	if uint64(len(region)) > ChainHeartbeatOff-ChainRenewOff {
		return fmt.Errorf("controlha: chain region %d bytes exceeds slot", len(region))
	}
	if err := c.mem.WriteBytes(c.base+slot, region); err != nil {
		return fmt.Errorf("controlha: chain arm: %w", err)
	}
	return nil
}

// ArmRenew pre-posts the lease-renewal chain: verify ownership with a CAS
// on the owner word (abort if another controller took it), then write the
// new expiry — which arrives per-firing as the trigger argument, so one
// armed program serves every renewal of the term. Under the witness-epoch
// guard, a deposal revokes the chain before it can extend a stale lease.
func (c *ChainOffload) ArmRenew() error {
	g, err := c.guard()
	if err != nil {
		return err
	}
	wrkey, err := c.mem.RKeyFor(c.wbase, WitnessSize)
	if err != nil {
		return err
	}
	prog := &verbchain.Program{
		Ops: []verbchain.Op{
			{
				Kind: verbchain.KindCAS, RKey: wrkey, Addr: c.wbase + witnessOffOwner,
				Cmp: verbchain.Imm(c.id), Src: verbchain.Imm(c.id),
				Dst: verbchain.NoReg, AbortIfLost: true,
			},
			{
				Kind: verbchain.KindWrite, RKey: wrkey, Addr: c.wbase + witnessOffExpiry,
				Src: verbchain.Reg(verbchain.ArgReg), Dst: verbchain.NoReg,
			},
		},
		Guard: g,
	}
	if err := c.arm(ChainRenewOff, prog); err != nil {
		return err
	}
	c.mu.Lock()
	c.rnArmed = true
	c.mu.Unlock()
	return nil
}

// TriggerRenew fires the renew chain with the new expiry (unix nanos) as
// the trigger argument: one verb on the wire, ownership check + expiry
// write on the standby's NIC. Callers map ErrChainRevoked / ErrChainFault /
// ErrAccess to deposal (Lease.RenewChain does).
func (c *ChainOffload) TriggerRenew(ctx context.Context, expiry uint64) (rdma.ChainResult, error) {
	c.mu.Lock()
	armed := c.rnArmed
	c.mu.Unlock()
	if !armed {
		return rdma.ChainResult{}, fmt.Errorf("controlha: renew chain not armed")
	}
	res, err := c.mem.WithContext(ctx).ChainTrigger(c.base+ChainRenewOff, expiry)
	if err == nil {
		c.reg.Counter("controlha.chain.renews").Inc()
	}
	return res, err
}

// ArmHeartbeat pre-posts the heartbeat chain and seeds the liveness epoch:
// CAS the liveness word against the arming epoch (abort if the standby
// fenced heartbeats), FETCH-ADD the beat sequence, and write the trigger
// count into the deadman qword. The standby detects leader death purely by
// watching the sequence word stall.
func (c *ChainOffload) ArmHeartbeat() error {
	g, err := c.guard()
	if err != nil {
		return err
	}
	crkey, err := c.mem.RKeyFor(c.base+ChainHBEpochOff, 8)
	if err != nil {
		return err
	}
	if err := c.mem.WriteMem(c.base+ChainHBEpochOff, 8, c.epoch); err != nil {
		return fmt.Errorf("controlha: liveness epoch seed: %w", err)
	}
	prog := &verbchain.Program{
		Ops: []verbchain.Op{
			{
				Kind: verbchain.KindCAS, RKey: crkey, Addr: c.base + ChainHBEpochOff,
				Cmp: verbchain.Imm(c.epoch), Src: verbchain.Imm(c.epoch),
				Dst: verbchain.NoReg, AbortIfLost: true,
			},
			{
				Kind: verbchain.KindFetchAdd, RKey: crkey, Addr: c.base + ChainHBSeqOff,
				Src: verbchain.Imm(1), Dst: verbchain.NoReg,
			},
			{
				Kind: verbchain.KindWrite, RKey: crkey, Addr: c.base + ChainDeadmanOff,
				Src: verbchain.Trigger(), Dst: verbchain.NoReg,
			},
		},
		Guard: g,
	}
	if err := c.arm(ChainHeartbeatOff, prog); err != nil {
		return err
	}
	c.mu.Lock()
	c.hbArmed = true
	c.mu.Unlock()
	return nil
}

// TriggerHeartbeat fires one beat.
func (c *ChainOffload) TriggerHeartbeat(ctx context.Context) (rdma.ChainResult, error) {
	c.mu.Lock()
	armed := c.hbArmed
	c.mu.Unlock()
	if !armed {
		return rdma.ChainResult{}, fmt.Errorf("controlha: heartbeat chain not armed")
	}
	res, err := c.mem.WithContext(ctx).ChainTrigger(c.base+ChainHeartbeatOff, 0)
	if err == nil {
		c.reg.Counter("controlha.chain.heartbeats").Inc()
	}
	return res, err
}

// StartHeartbeat fires the heartbeat chain every interval on clk until
// StopHeartbeat, a revoked/faulted chain, or an access error (a takeover
// rotated the chain MR) — all of which stop the loop, since each means this
// leader's term is over. Starting an already beating offload is a no-op.
func (c *ChainOffload) StartHeartbeat(clk clock.Clock, interval time.Duration) {
	if clk == nil {
		clk = clock.Real{}
	}
	if interval <= 0 {
		interval = 5 * time.Millisecond
	}
	c.mu.Lock()
	if c.hbStop != nil {
		c.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	c.hbStop, c.hbDone = stop, done
	c.mu.Unlock()
	go func() {
		defer close(done)
		t := clk.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C():
				if _, err := c.TriggerHeartbeat(context.Background()); err != nil {
					if errors.Is(err, rdma.ErrChainRevoked) || errors.Is(err, rdma.ErrChainFault) ||
						errors.Is(err, rdma.ErrAccess) {
						return
					}
				}
			}
		}
	}()
}

// StopHeartbeat stops the heartbeat loop, waiting for the in-flight beat.
func (c *ChainOffload) StopHeartbeat() {
	c.mu.Lock()
	stop, done := c.hbStop, c.hbDone
	c.hbStop, c.hbDone = nil, nil
	c.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// AttachChain arms the HA control chains for an established leadership term
// and routes the term's lease renewal through the renew chain (one verb per
// renewal instead of three round trips). Call after AttachLeader/TakeOver;
// the returned offload also serves heartbeating (StartHeartbeat).
func AttachChain(l *Leader, qp rdma.Verbs) (*ChainOffload, error) {
	mrs, err := qp.QueryMRs()
	if err != nil {
		return nil, fmt.Errorf("controlha: MR discovery: %w", err)
	}
	mem := core.NewRemoteMemory(qp, mrs)
	co, err := NewChainOffload(mem, mrs, l.Lease.id, l.Lease.Epoch(), l.CP.Registry)
	if err != nil {
		return nil, err
	}
	if err := co.ArmRenew(); err != nil {
		return nil, err
	}
	if err := co.ArmHeartbeat(); err != nil {
		return nil, err
	}
	l.Lease.UseChain(co)
	return co, nil
}
