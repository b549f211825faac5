package rdma

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"

	"rdx/internal/mem"
	"rdx/internal/verbchain"
)

// Verb-chain offload (DESIGN.md §15). A chain region is a window of the
// target's arena holding one pre-posted verbchain program plus its trigger
// count, status word, and register file (layout: verbchain.Off*). The
// initiator arms it with ordinary WRITEs (verbchain.EncodeRegion) and fires
// it with OpChainTrigger; the endpoint then runs the whole program on its
// DMA goroutine — zero initiator round trips between trigger and effect,
// and, like every verb, zero involvement of the target's simulated cores.
//
// Fencing composes exactly as for single verbs: every chain-op rkey is
// re-resolved against the live MR table at step-execution time, so a
// RotateMR lands on a resident chain mid-flight (the step fails
// StatusRevoked); a rotated chain-REGION rkey fails the trigger itself with
// StatusAccessErr before any step runs; and a program Guard re-reads a
// fencing word before every step, so an epoch bump revokes the remainder
// of an executing chain.

// ChainResult is the outcome of one OpChainTrigger: the chain's packed
// status word (also persisted in the region at verbchain.OffStatus), the
// steps executed, and the post-increment trigger count this firing saw.
type ChainResult struct {
	Status  uint64 // verbchain.PackStatus(code, pc)
	Steps   uint64
	Trigger uint64
}

// Code returns the chain's status code (verbchain.Status*).
func (r ChainResult) Code() uint8 { return verbchain.StatusCode(r.Status) }

// PC returns the op index the chain finished or faulted at.
func (r ChainResult) PC() int { return verbchain.StatusPC(r.Status) }

// Errors surfaced by the client for failed chain executions. Both are
// deterministic remote outcomes, not transport errors: the trigger itself
// completed, the resident program did not.
var (
	// ErrChainFault marks a chain stopped by a failing step: bounds or
	// permission violation, a lost CAS with AbortIfLost, an exhausted WAIT,
	// or malformed resident bytes.
	ErrChainFault = errors.New("rdma: verb chain faulted")
	// ErrChainRevoked marks a chain stopped by fencing: its guard word no
	// longer matched or a step's rkey had been rotated away mid-chain.
	ErrChainRevoked = errors.New("rdma: verb chain revoked by fencing")
)

// chainRespLen is the OpChainTrigger response body: status, steps, trigger.
const chainRespLen = 24

// endpointEnv adapts the endpoint's arena + live MR table to the verbchain
// executor. Every access re-resolves its rkey under the MR lock, so a
// rotation that lands between two steps revokes the rest of the chain —
// identical semantics to a rotation landing between two single verbs.
type endpointEnv struct {
	e *Endpoint
}

// resolve maps an rkey to its live MR, or a verbchain.ErrRevoked-class
// error when the key has been rotated or deregistered away.
func (v endpointEnv) resolve(rkey uint32, addr mem.Addr, perm Perm) (*MR, error) {
	v.e.mu.RLock()
	mr, ok := v.e.mrs[rkey]
	v.e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: rkey %#x", verbchain.ErrRevoked, rkey)
	}
	if mr.Perm&perm != perm {
		return nil, fmt.Errorf("rdma: chain step permission denied on rkey %#x", rkey)
	}
	if addr < mr.Addr || mr.Len < 8 || addr-mr.Addr > mr.Len-8 {
		return nil, fmt.Errorf("rdma: chain step target %#x out of bounds", addr)
	}
	return mr, nil
}

func (v endpointEnv) LoadQword(rkey uint32, addr uint64) (uint64, error) {
	if _, err := v.resolve(rkey, mem.Addr(addr), PermRead); err != nil {
		return 0, err
	}
	return v.e.arena.ReadQword(mem.Addr(addr))
}

func (v endpointEnv) StoreQword(rkey uint32, addr uint64, val uint64) error {
	if _, err := v.resolve(rkey, mem.Addr(addr), PermWrite); err != nil {
		return err
	}
	return v.e.arena.WriteQword(mem.Addr(addr), val)
}

func (v endpointEnv) CompareAndSwap(rkey uint32, addr uint64, old, new uint64) (uint64, bool, error) {
	if _, err := v.resolve(rkey, mem.Addr(addr), PermAtomic); err != nil {
		return 0, false, err
	}
	return v.e.arena.CompareAndSwap(mem.Addr(addr), old, new)
}

func (v endpointEnv) FetchAdd(rkey uint32, addr uint64, delta uint64) (uint64, error) {
	if _, err := v.resolve(rkey, mem.Addr(addr), PermAtomic); err != nil {
		return 0, err
	}
	return v.e.arena.FetchAdd(mem.Addr(addr), delta)
}

func (v endpointEnv) Yield() { runtime.Gosched() }

var _ verbchain.Env = endpointEnv{}

// execChain serves one OpChainTrigger. The region rkey is resolved ONCE
// here — a rotated chain region fails the whole trigger with
// StatusAccessErr, the stale resident program provably never executes. The
// trigger count is bumped with a real arena FETCH-ADD (concurrent triggers
// from any number of QPs serialize there), the resident program is decoded
// fresh per firing (resident bytes are data, not trusted state), and the
// register file round-trips through the region so state persists across
// firings. out must hold chainRespLen bytes.
func (e *Endpoint) execChain(q *request, out []byte) (uint8, []byte) {
	e.mu.RLock()
	mr, ok := e.mrs[q.rkey]
	e.mu.RUnlock()
	if !ok {
		return StatusAccessErr, nil
	}
	// Triggering needs the full permission set: the chain mutates its own
	// trigger/status/register words and reads its program back.
	if mr.Perm&PermAll != PermAll {
		return StatusAccessErr, nil
	}
	base := q.addr
	if base < mr.Addr || uint64(verbchain.OffProg) > mr.Len || base-mr.Addr > mr.Len-uint64(verbchain.OffProg) {
		return StatusBoundsErr, nil
	}
	limit := mr.Len - (base - mr.Addr) // region bytes available at base

	prev, err := e.arena.FetchAdd(base+verbchain.OffTrigger, 1)
	if err != nil {
		return StatusOpErr, nil
	}
	trigger := prev + 1

	finish := func(res verbchain.Result) (uint8, []byte) {
		// Persist the outcome even when the program never ran: pollers of
		// the status word see faults from malformed resident bytes too.
		_ = e.arena.WriteQword(base+verbchain.OffStatus, res.Status)
		binary.BigEndian.PutUint64(out[0:8], res.Status)
		binary.BigEndian.PutUint64(out[8:16], res.Steps)
		binary.BigEndian.PutUint64(out[16:24], trigger)
		return StatusOK, out[:chainRespLen]
	}

	progLen, err := e.arena.ReadQword(base + verbchain.OffProgLen)
	if err != nil || progLen == 0 || progLen > verbchain.MaxProgBytes ||
		uint64(verbchain.OffProg)+progLen > limit {
		return finish(verbchain.Result{Status: verbchain.PackStatus(verbchain.StatusFault, 0)})
	}
	progBytes, err := e.arena.Read(base+verbchain.OffProg, int(progLen))
	if err != nil {
		return finish(verbchain.Result{Status: verbchain.PackStatus(verbchain.StatusFault, 0)})
	}
	prog, err := verbchain.Decode(progBytes)
	if err != nil {
		return finish(verbchain.Result{Status: verbchain.PackStatus(verbchain.StatusFault, 0)})
	}

	var regs [verbchain.NRegs]uint64
	for i := range regs {
		if regs[i], err = e.arena.ReadQword(base + verbchain.OffRegs + mem.Addr(8*i)); err != nil {
			return finish(verbchain.Result{Status: verbchain.PackStatus(verbchain.StatusFault, 0)})
		}
	}
	regs[verbchain.ArgReg] = q.delta

	res := verbchain.Execute(prog, &regs, trigger, endpointEnv{e})

	for i := range regs {
		_ = e.arena.WriteQword(base+verbchain.OffRegs+mem.Addr(8*i), regs[i])
	}

	if res.Code() == verbchain.StatusOK && prog.Doorbell != nil {
		db := prog.Doorbell
		// The doorbell target is fencing-checked like any step: a rotated
		// rkey silently swallows the ring (the chain itself succeeded).
		if _, derr := (endpointEnv{e}).resolve(db.RKey, mem.Addr(db.Addr), PermWrite); derr == nil {
			e.fireDoorbells(db.Imm, mem.Addr(db.Addr), nil)
		}
	}
	return finish(res)
}

// decodeChainResult parses an OpChainTrigger response body and maps the
// chain outcome to its typed error.
func decodeChainResult(data []byte) (ChainResult, error) {
	if len(data) != chainRespLen {
		return ChainResult{}, fmt.Errorf("rdma: bad CHAIN_TRIGGER response (%d bytes)", len(data))
	}
	r := ChainResult{
		Status:  binary.BigEndian.Uint64(data[0:8]),
		Steps:   binary.BigEndian.Uint64(data[8:16]),
		Trigger: binary.BigEndian.Uint64(data[16:24]),
	}
	switch r.Code() {
	case verbchain.StatusOK:
		return r, nil
	case verbchain.StatusRevoked:
		return r, fmt.Errorf("%w (pc %d)", ErrChainRevoked, r.PC())
	default:
		return r, fmt.Errorf("%w (pc %d)", ErrChainFault, r.PC())
	}
}

// ChainTriggerCtx fires the chain resident at (rkey, addr); arg lands in the
// chain's argument register (verbchain.ArgReg) before the program runs. A
// rotated chain-region rkey fails with ErrAccess; a chain stopped by fencing
// mid-flight returns ErrChainRevoked; a failing step returns ErrChainFault.
// The ChainResult is meaningful whenever the trigger itself completed.
func (qp *QP) ChainTriggerCtx(ctx context.Context, rkey uint32, addr mem.Addr, arg uint64) (ChainResult, error) {
	c, err := qp.callCtx(ctx, request{op: OpChainTrigger, rkey: rkey, addr: addr, delta: arg})
	if err != nil {
		return ChainResult{}, err
	}
	return decodeChainResult(c.Data)
}

// RotateMRCtx remotely re-keys the named region on the target endpoint,
// returning the new rkey. The old rkey — held by anyone, including a
// pre-posted chain's ops — fails StatusAccessErr from this point on.
func (qp *QP) RotateMRCtx(ctx context.Context, name string) (uint32, error) {
	c, err := qp.callCtx(ctx, request{op: OpRotateMR, data: []byte(name)})
	if err != nil {
		return 0, err
	}
	if len(c.Data) != 4 {
		return 0, fmt.Errorf("rdma: bad ROTATE_MR response (%d bytes)", len(c.Data))
	}
	return binary.BigEndian.Uint32(c.Data), nil
}

// ChainTriggerCtx implements Verbs. A trigger is NOT idempotent (it bumps
// the trigger count and executes the resident program), so it follows the
// atomic replay rules: replayed only when provably unposted, ErrUncertain
// when its completion is lost after posting.
func (r *ReconnQP) ChainTriggerCtx(ctx context.Context, rkey uint32, addr mem.Addr, arg uint64) (res ChainResult, err error) {
	err = r.do(ctx, false, func(qp *QP, rk func(uint32) uint32) error {
		var err error
		// A chain outcome is not a transport error, so do never redials on it.
		res, err = qp.ChainTriggerCtx(ctx, rk(rkey), addr, arg)
		return err
	})
	return res, err
}

// RotateMRCtx implements Verbs. Rotation is not idempotent (a replayed
// rotate would re-key a second time, invalidating the rkey the first
// rotation returned), so a lost completion surfaces as ErrUncertain. On
// success the wrapper adopts the new rkey as the region's live key and
// returns the caller's STABLE virtual rkey — existing handles keep
// working, while any peer holding the old real rkey is fenced.
func (r *ReconnQP) RotateMRCtx(ctx context.Context, name string) (uint32, error) {
	var newKey uint32
	err := r.do(ctx, false, func(qp *QP, _ func(uint32) uint32) error {
		var err error
		newKey, err = qp.RotateMRCtx(ctx, name)
		return err
	})
	if err != nil {
		return 0, err
	}
	r.mu.Lock()
	virt := r.adoptLocked(name, newKey)
	r.current[name] = newKey
	r.mu.Unlock()
	return virt, nil
}
