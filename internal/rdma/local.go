package rdma

import (
	"context"
	"encoding/binary"
	"fmt"

	"rdx/internal/mem"
)

// Local returns an in-process issuer for this endpoint: every verb runs
// the same exec / execBatch / execChain the wire path runs and maps its
// status through the same statusErr / decodeChainResult, but crosses no
// wire, charges no latency and records no served-verb metrics. It is what
// the model checker fires (internal/sim), so the semantics it checks are
// the ones that ship. There is no frame budget: a WRITE of any size is one
// verb and a batch of any size is one chain. ctx is ignored — a local verb
// cannot block.
func (e *Endpoint) Local() Verbs { return localVerbs{e} }

type localVerbs struct{ e *Endpoint }

// do executes one decoded verb on fresh scratch, so returned data is owned
// by the caller.
func (l localVerbs) do(q request) ([]byte, error) {
	var cs connScratch
	st, data := l.e.exec(&q, &cs)
	return data, statusErr(st)
}

func (l localVerbs) ReadCtx(_ context.Context, rkey uint32, addr mem.Addr, n int) ([]byte, error) {
	return l.do(request{op: OpRead, rkey: rkey, addr: addr, len: uint32(n)})
}

func (l localVerbs) WriteCtx(_ context.Context, rkey uint32, addr mem.Addr, data []byte) error {
	_, err := l.do(request{op: OpWrite, rkey: rkey, addr: addr, data: data})
	return err
}

func (l localVerbs) WriteImmCtx(_ context.Context, rkey uint32, addr mem.Addr, imm uint32, data []byte) error {
	_, err := l.do(request{op: OpWriteImm, rkey: rkey, addr: addr, imm: imm, data: data})
	return err
}

func (l localVerbs) WriteBatchCtx(_ context.Context, ops []BatchOp) error {
	subs := make([]request, len(ops))
	for i, op := range ops {
		subs[i] = op.request()
	}
	var cs connScratch
	st, statuses := l.e.execBatch(subs, &cs)
	if st == StatusOK {
		return nil
	}
	return batchErr(Completion{Err: statusErr(st), Data: statuses})
}

func (l localVerbs) atomic(q request) (uint64, error) {
	data, err := l.do(q)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(data), nil
}

func (l localVerbs) CompareAndSwapCtx(_ context.Context, rkey uint32, addr mem.Addr, old, new uint64) (uint64, error) {
	return l.atomic(request{op: OpCAS, rkey: rkey, addr: addr, cmp: old, swap: new})
}

func (l localVerbs) FetchAddCtx(_ context.Context, rkey uint32, addr mem.Addr, delta uint64) (uint64, error) {
	return l.atomic(request{op: OpFetchAdd, rkey: rkey, addr: addr, delta: delta})
}

func (l localVerbs) ChainTriggerCtx(_ context.Context, rkey uint32, addr mem.Addr, arg uint64) (ChainResult, error) {
	var out [chainRespLen]byte
	st, data := l.e.execChain(&request{op: OpChainTrigger, rkey: rkey, addr: addr, delta: arg}, out[:])
	if st != StatusOK {
		return ChainResult{}, statusErr(st)
	}
	return decodeChainResult(data)
}

func (l localVerbs) RotateMRCtx(_ context.Context, name string) (uint32, error) {
	mr, err := l.e.RotateMR(name)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrOp, err) // StatusOpErr on the wire
	}
	return mr.RKey, nil
}

func (l localVerbs) QueryMRs() ([]MR, error) { return decodeMRTable(l.e.encodeMRTable()) }

func (l localVerbs) Close() error { return nil }
