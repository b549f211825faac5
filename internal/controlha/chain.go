package controlha

import (
	"context"
	"fmt"
	"sync"

	"rdx/internal/core"
	"rdx/internal/rdma"
	"rdx/internal/telemetry"
	"rdx/internal/verbchain"
)

// ChainOffload arms and fires the lease-renew chain resident in a standby
// host's ha-chain MR (DESIGN.md §15): a pre-posted verbchain program fired
// by a single OpChainTrigger.
//
// What the offload buys: renewal collapses from a multi-round-trip verb
// sequence driven by the leader's CPU into one wire verb whose multi-step
// effect executes on the STANDBY's NIC. A leader whose cores are saturated
// still renews its lease at fabric speed — the only leader-side work per
// period is posting one trigger.
//
// Fencing composes with the witness exactly like the unoffloaded path: the
// program is guarded on the witness epoch word, so the instant a successor's
// FETCH-ADD bumps the epoch, the resident chain revokes itself mid-flight —
// the stale leader's next trigger returns ErrChainRevoked and it deposes
// locally, the same contract Renew enforces with reads.
type ChainOffload struct {
	mem   *core.RemoteMemory
	base  uint64 // ha-chain MR base
	wbase uint64 // witness MR base
	id    uint64
	epoch uint64
	reg   *telemetry.Registry

	mu      sync.Mutex
	rnArmed bool
}

// NewChainOffload binds a chain view over a host's MR table for the leader
// (id) holding fencing epoch. Arm the renew chain before triggering it.
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

// guard returns the fencing predicate the renew chain carries: the witness
// epoch must still equal the arming epoch before EVERY step, or the chain
// revokes itself.
func (c *ChainOffload) guard() (verbchain.Guard, error) {
	rkey, err := c.mem.RKeyFor(c.wbase+witnessOffEpoch, 8)
	if err != nil {
		return verbchain.Guard{}, err
	}
	return verbchain.Guard{Enabled: true, RKey: rkey, Addr: c.wbase + witnessOffEpoch, Want: c.epoch}, nil
}

// arm validates prog against the live MR table and writes it, as a freshly
// initialized chain region, into the renew slot.
func (c *ChainOffload) arm(prog *verbchain.Program) error {
	if err := prog.Validate(c.mem.Regions()); err != nil {
		return fmt.Errorf("controlha: chain validate: %w", err)
	}
	region := verbchain.EncodeRegion(prog)
	if uint64(len(region)) > ChainMRSize {
		return fmt.Errorf("controlha: chain region %d bytes exceeds slot", len(region))
	}
	if err := c.mem.WriteBytes(c.base+ChainRenewOff, region); err != nil {
		return fmt.Errorf("controlha: chain arm: %w", err)
	}
	c.mu.Lock()
	c.rnArmed = true
	c.mu.Unlock()
	return nil
}

// ArmRenew pre-posts the lease-renewal chain under the witness-epoch guard,
// so a deposal revokes the chain before it can extend a stale lease.
func (c *ChainOffload) ArmRenew() error {
	g, err := c.guard()
	if err != nil {
		return err
	}
	prog, err := c.renewProgram(g)
	if err != nil {
		return err
	}
	return c.arm(prog)
}

// renewProgram is the lease-renewal chain under guard g: verify ownership
// with a CAS on the owner word (abort if another controller took it), then
// write the new expiry — which arrives per-firing as the trigger argument,
// so one armed program serves every renewal of the term.
func (c *ChainOffload) renewProgram(g verbchain.Guard) (*verbchain.Program, error) {
	wrkey, err := c.mem.RKeyFor(c.wbase, WitnessSize)
	if err != nil {
		return nil, err
	}
	return &verbchain.Program{
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
	}, nil
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

// AttachChain arms the renew chain for an established leadership term and
// routes the term's lease renewal through it (one verb per renewal instead
// of three round trips). Call after AttachLeader/TakeOver.
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
	l.Lease.UseChain(co)
	return co, nil
}
